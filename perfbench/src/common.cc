#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <tuple>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t
SplitMix::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::string
RequestShape::line(const std::string &id) const
{
    std::ostringstream os;
    os << "{\"id\":\"" << id << "\",\"benchmark\":\"" << family
       << "\",\"qubits\":" << qubits << ",\"seed\":" << seed
       << ",\"sched\":\"" << sched << "\",\"pulse\":\"" << pulse
       << "\",\"topology\":\"" << topology
       << "\",\"device_seed\":" << device_seed << "}";
    return os.str();
}

namespace {

// The request space every service workload draws from.  Literal
// names (not the library's name tables) keep the byte stream fixed
// by the seed alone.
const std::vector<std::string> kFamilies = {"GRC", "QFT", "QAOA", "Ising",
                                            "HS"};
const std::vector<std::string> kPolicies = {
    "ParSched", "ZZXSched", "ZzxWeighted", "ExactSched", "CycleAware"};
const std::vector<std::string> kPulses = {"Gaussian", "Pert"};
const std::vector<std::string> kTopologies = {"grid", "ring"};
/** Devices come from a fixed pool, so the daemon's per-device state
 *  (devices, compilers) is bounded and nearly saturated within a run
 *  instead of growing with every line served.  32 devices leave
 *  3200 distinct lines per deterministic family (QFT, Ising). */
constexpr uint64_t kDevicePoolBase = 1000;
constexpr uint64_t kDevicePoolSize = 32;
/** Cache bound of the tiered workload; its working set is 4x this. */
constexpr size_t kTieredCacheCapacity = 16;
constexpr size_t kTieredWorkingSet = 4 * kTieredCacheCapacity;
constexpr size_t kWarmShapes = 16;

bool
seededFamily(const std::string &family)
{
    return family == "GRC" || family == "QAOA" || family == "HS";
}

std::vector<int>
qubitChoices(const std::string &family)
{
    if (family == "HS")
        return {8, 10, 12};
    return {8, 9, 10, 11, 12};
}

/** The fields that make two requests compile the same program. */
using ShapeKey = std::tuple<std::string, int, uint64_t, std::string,
                            std::string, std::string, uint64_t>;

ShapeKey
keyOf(const RequestShape &s)
{
    return {s.family,   s.qubits,   seededFamily(s.family) ? s.seed : 0,
            s.sched,    s.pulse,    s.topology,
            s.device_seed};
}

/**
 * Distinct request shapes, stratified so that every prefix of the
 * stream has nearly the workload's whole mix (a timed phase consumes
 * only a prefix, and a QFT-12 compile costs several GRC-8 ones).
 * Lines come in groups of one line per family, in seeded order; each
 * family walks its (qubits, policy, pulse, topology) combinations in
 * runs that hold every size once.  The seed picks the orders, the
 * circuit seeds and the devices.
 */
class FreshStream
{
  public:
    FreshStream(SplitMix &rng, std::set<ShapeKey> &used)
        : rng_(rng), used_(used), queues_(kFamilies.size())
    {
    }

    RequestShape
    next()
    {
        if (group_.empty()) {
            for (size_t f = 0; f < kFamilies.size(); ++f)
                group_.push_back(f);
            shuffle(group_);
        }
        const size_t f = group_.back();
        group_.pop_back();
        if (queues_[f].empty())
            refill(f);
        RequestShape s = queues_[f].back();
        queues_[f].pop_back();
        // Redraw the circuit seed and device until the shape is new:
        // no fresh line may hit the cache or coalesce.  A circuit
        // family without a seed runs out of devices after 3200 of its
        // lines; past that (several times today's throughput) its
        // slots fall back to GRC.
        for (int tries = 0;; ++tries) {
            if (tries == 200 && !seededFamily(s.family))
                s.family = "GRC";
            if (tries > 10000)
                throw std::runtime_error("request space exhausted");
            s.seed = 1 + rng_.below(uint64_t(1) << 31);
            s.device_seed = kDevicePoolBase + rng_.below(kDevicePoolSize);
            if (used_.insert(keyOf(s)).second)
                return s;
        }
    }

  private:
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng_.below(i)]);
    }

    /** Family @p f's next cycle of combinations, consumed from the
     *  back: runs of one line per size, the runs in seeded order. */
    void
    refill(size_t f)
    {
        std::vector<RequestShape> rest;
        for (const auto &sched : kPolicies)
            for (const auto &pulse : kPulses)
                for (const auto &topo : kTopologies) {
                    RequestShape s;
                    s.family = kFamilies[f];
                    s.sched = sched;
                    s.pulse = pulse;
                    s.topology = topo;
                    rest.push_back(s);
                }
        shuffle(rest);
        std::vector<int> qubits = qubitChoices(kFamilies[f]);
        auto &queue = queues_[f];
        for (auto &s : rest) {
            shuffle(qubits);
            for (int q : qubits) {
                s.qubits = q;
                queue.push_back(s);
            }
        }
    }

    SplitMix &rng_;
    std::set<ShapeKey> &used_;
    std::vector<std::vector<RequestShape>> queues_;
    std::vector<size_t> group_;
};

/**
 * @p count repeatable shapes with a fixed, balanced composition
 * (families, sizes, policies, pulses and topologies cycle with
 * co-prime periods); the seed draws only circuit seeds and devices,
 * so the work per shape set is alike for every seed.
 */
std::vector<RequestShape>
balancedShapes(size_t count, SplitMix &rng, std::set<ShapeKey> &used)
{
    std::vector<RequestShape> shapes;
    for (size_t k = 0; k < count; ++k) {
        RequestShape s;
        s.family = kFamilies[k % kFamilies.size()];
        const auto qs = qubitChoices(s.family);
        s.qubits = qs[(k / kFamilies.size()) % qs.size()];
        s.sched = kPolicies[(k + k / kPolicies.size()) % kPolicies.size()];
        s.pulse = kPulses[(k / 2) % kPulses.size()];
        s.topology = kTopologies[(k / 4) % kTopologies.size()];
        for (;;) {
            s.seed = 1 + rng.below(uint64_t(1) << 31);
            s.device_seed = kDevicePoolBase + rng.below(kDevicePoolSize);
            if (used.insert(keyOf(s)).second)
                break;
        }
        shapes.push_back(s);
    }
    return shapes;
}

} // namespace

bool
isServiceWorkload(const std::string &workload)
{
    return workload == "cold" || workload == "warm" ||
           workload == "tiered_mixed";
}

DaemonSettings
daemonSettings(const std::string &workload)
{
    DaemonSettings d;
    if (workload == "tiered_mixed") {
        d.cache_capacity = kTieredCacheCapacity;
        d.artifact_dir = true;
        // Room for the working set's artifacts plus recent fresh
        // ones; the fresh half overflows it and keeps the GC busy.
        d.gc_capacity_bytes = 12ull << 20;
    }
    return d;
}

ServiceTraffic
makeTraffic(const std::string &workload, uint64_t seed, size_t timed_lines)
{
    // Workload name in the stream seed: one --seed gives unrelated
    // streams to different workloads.
    uint64_t mixed = seed;
    for (char c : workload)
        mixed = mixed * 131 + uint64_t(uint8_t(c));
    SplitMix rng(mixed);
    std::set<ShapeKey> used;
    ServiceTraffic t;
    if (workload == "cold") {
        // Loads both pulse libraries and every policy on devices
        // outside the timed pool, so nothing timed can hit.
        for (const auto &pulse : kPulses)
            for (const auto &sched : kPolicies) {
                RequestShape s;
                s.family = "GRC";
                s.qubits = 8;
                s.seed = 1;
                s.sched = sched;
                s.pulse = pulse;
                s.topology = "grid";
                s.device_seed = 7;
                used.insert(keyOf(s));
                t.prewarm.push_back(s);
            }
        FreshStream fresh(rng, used);
        for (size_t i = 0; i < timed_lines; ++i) {
            t.fresh.push_back(fresh.next());
            t.order.push_back(-int32_t(t.fresh.size()));
        }
    } else if (workload == "warm") {
        t.prewarm = balancedShapes(kWarmShapes, rng, used);
        for (size_t i = 0; i < timed_lines; ++i)
            t.order.push_back(int32_t(rng.below(t.prewarm.size())));
    } else if (workload == "tiered_mixed") {
        t.prewarm = balancedShapes(kTieredWorkingSet, rng, used);
        FreshStream fresh(rng, used);
        // Pairs of one repeat and one fresh line in seeded order:
        // exactly half the stream repeats the working set.
        for (size_t i = 0; i < timed_lines; i += 2) {
            const bool repeat_first = rng.below(2) == 0;
            for (int half = 0; half < 2 && t.order.size() < timed_lines;
                 ++half) {
                if ((half == 0) == repeat_first) {
                    t.order.push_back(int32_t(rng.below(t.prewarm.size())));
                } else {
                    t.fresh.push_back(fresh.next());
                    t.order.push_back(-int32_t(t.fresh.size()));
                }
            }
        }
    } else {
        throw std::runtime_error("no traffic for workload '" + workload +
                                 "'");
    }
    return t;
}

CacheCounts
CacheCounts::plus(const CacheCounts &o) const
{
    return {hits + o.hits,           disk_hits + o.disk_hits,
            misses + o.misses,       evictions + o.evictions,
            disk_writes + o.disk_writes, coalesced + o.coalesced};
}

CacheCounts
CacheCounts::minus(const CacheCounts &o) const
{
    return {hits - o.hits,           disk_hits - o.disk_hits,
            misses - o.misses,       evictions - o.evictions,
            disk_writes - o.disk_writes, coalesced - o.coalesced};
}

std::string
selfCheck(const std::string &workload, const CacheCounts &c)
{
    if (workload == "cold" && (c.hits + c.disk_hits != 0 || c.coalesced != 0))
        return "cold: cache hits or coalesced requests";
    if (workload == "warm" && (c.lookups() == 0 || c.hits != c.lookups()))
        return "warm: hit share below 1.0";
    if (workload == "tiered_mixed" &&
        (c.disk_hits == 0 || c.evictions == 0 || c.disk_writes == 0))
        return "tiered_mixed: no disk hits, evictions or artifact writes";
    return "";
}

std::string
trafficBytes(const std::string &workload, uint64_t seed, size_t timed_lines)
{
    const ServiceTraffic t = makeTraffic(workload, seed, timed_lines);
    std::string out;
    for (size_t i = 0; i < t.prewarm.size(); ++i)
        out += t.prewarm[i].line("w" + std::to_string(i)) + "\n";
    for (size_t i = 0; i < t.size(); ++i)
        out += t.timed(i).line(std::to_string(i)) + "\n";
    return out;
}

size_t
trafficCapacity(const std::string &workload, double seconds)
{
    // About 5x the throughput measured on a 4-core Xeon (cold ~360,
    // tiered ~410, warm ~2200 lines/s).
    const double per_second = workload == "warm" ? 12000.0 : 2000.0;
    return size_t(seconds * per_second) + 2000;
}

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double n = double(sorted.size());
    // Nearest rank: ceil(q * n), 1-based, clamped to [1, n].
    size_t rank = size_t(std::ceil(q * n - 1e-9));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

double
quantileLinear(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = std::clamp(q, 0.0, 1.0) * double(sorted.size() - 1);
    const size_t lo = size_t(std::floor(pos));
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.p50 = quantileSorted(samples, 0.5);
    s.p90 = quantileSorted(samples, 0.9);
    s.max = samples.back();
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    s.mean = sum / double(samples.size());
    return s;
}

double
median(std::vector<double> samples)
{
    return summarize(std::move(samples)).p50;
}

bool
quantileSelfTest(std::string *error)
{
    auto fail = [&](const std::string &what) {
        if (error)
            *error = "quantile self-test: " + what;
        return false;
    };
    // 1..10: nearest-rank p50 = 5, p90 = 9.
    std::vector<double> ten;
    for (int i = 10; i >= 1; --i)
        ten.push_back(double(i));
    Summary s = summarize(ten);
    if (s.p50 != 5.0 || s.p90 != 9.0 || s.max != 10.0 || s.n != 10)
        return fail("1..10 gave p50 " + fmt(s.p50) + ", p90 " +
                    fmt(s.p90));
    // 1..100: p50 = 50, p90 = 90.
    std::vector<double> hundred;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(double((i * 37) % 100 + 1));
    s = summarize(hundred);
    if (s.p50 != 50.0 || s.p90 != 90.0 || s.max != 100.0)
        return fail("1..100 gave p50 " + fmt(s.p50) + ", p90 " +
                    fmt(s.p90));
    // Interpolated: 1..10 gives p50 = 5.5 and p90 = 9.1.
    std::sort(ten.begin(), ten.end());
    if (std::abs(quantileLinear(ten, 0.5) - 5.5) > 1e-12 ||
        std::abs(quantileLinear(ten, 0.9) - 9.1) > 1e-12 ||
        quantileLinear(ten, 1.0) != 10.0 || quantileLinear(ten, 0.0) != 1.0)
        return fail("interpolated quantiles of 1..10");
    // A single sample is every quantile.
    s = summarize({3.25});
    if (s.p50 != 3.25 || s.p90 != 3.25 || s.max != 3.25)
        return fail("single sample");
    // A heavy tail: no quantile may exceed the observed maximum, and
    // every quantile is an observed value.
    std::vector<double> tail(999, 1.0);
    tail.push_back(81.92);
    s = summarize(tail);
    if (s.p50 != 1.0 || s.p90 != 1.0 || s.max != 81.92)
        return fail("heavy tail");
    SplitMix rng(42);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<double> v;
        const size_t n = 1 + rng.below(200);
        for (size_t i = 0; i < n; ++i)
            v.push_back(double(rng.below(1000)) / 7.0);
        std::sort(v.begin(), v.end());
        for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
            if (quantileLinear(v, q) > v.back() ||
                quantileLinear(v, q) < v.front())
                return fail("interpolated quantile outside [min, max]");
            const double x = quantileSorted(v, q);
            if (x > v.back() ||
                !std::binary_search(v.begin(), v.end(), x))
                return fail("quantile outside the sample");
            const size_t at_or_below = size_t(
                std::upper_bound(v.begin(), v.end(), x) - v.begin());
            if (double(at_or_below) < q * double(n) - 1e-9)
                return fail("quantile below its rank");
        }
    }
    return true;
}

std::string
fmt(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*g",
                  std::numeric_limits<double>::max_digits10, v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (uint8_t(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

namespace {

std::string
cpuInfoField(const std::string &field)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field, 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                auto value = line.substr(colon + 1);
                value.erase(0, value.find_first_not_of(" \t"));
                return value;
            }
        }
    }
    return "";
}

bool
hasFlag(const std::string &flags, const std::string &flag)
{
    std::istringstream is(flags);
    std::string f;
    while (is >> f)
        if (f == flag)
            return true;
    return false;
}

} // namespace

std::string
environmentJson(uint64_t seed)
{
    const std::string flags = cpuInfoField("flags");
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    std::ostringstream os;
    os << "{\"cpu\":" << jsonString(cpuInfoField("model name"))
       << ",\"avx2\":" << (hasFlag(flags, "avx2") ? "true" : "false")
       << ",\"avx512f\":" << (hasFlag(flags, "avx512f") ? "true" : "false")
       << ",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"QZZ_VECTOR_KERNELS\":"
       << (PERFBENCH_VECTOR_KERNELS ? "true" : "false")
       << ",\"commit\":" << jsonString(commit ? commit : "unknown")
       << ",\"seed\":" << seed << "}";
    return os.str();
}

double
stolenSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double fields[8] = {};
    in >> cpu;
    for (double &f : fields)
        in >> f;
    return fields[7] / double(sysconf(_SC_CLK_TCK));
}

double
selfPeakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
pidPeakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream is(line.substr(6));
            double kib = 0.0;
            is >> kib;
            return kib / 1024.0;
        }
    }
    return 0.0;
}

double
promValue(const std::string &exposition, const std::string &name,
          const std::map<std::string, std::string> &labels)
{
    double total = 0.0;
    std::istringstream in(exposition);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (line.compare(0, name.size(), name) != 0)
            continue;
        const char after = line.size() > name.size() ? line[name.size()]
                                                     : '\0';
        if (after != '{' && after != ' ')
            continue;
        bool match = true;
        for (const auto &[k, v] : labels)
            if (line.find(k + "=\"" + v + "\"") == std::string::npos)
                match = false;
        if (!match)
            continue;
        const auto space = line.rfind(' ');
        if (space == std::string::npos)
            continue;
        total += std::strtod(line.c_str() + space + 1, nullptr);
    }
    return total;
}

} // namespace perfbench
