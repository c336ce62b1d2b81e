/**
 * @file
 * perfbench: the repository benchmark binary (see perfbench/README.md).
 *
 *   perfbench run --workload W --seed N --seconds S --trace 0|1
 *                 [--daemon PATH]
 *   perfbench selftest
 *   perfbench setup-probe --seed N   (one fidelity setup, timed by a
 *                                     parent run in a fresh process)
 *
 * `run` prints a detail line (environment stamp, sample counts and
 * maxima, self-check tallies) and, as its last line, the result
 * object {"correct", "attempted", "failed", "metrics"}.  With
 * --trace 0 the metrics are the end-to-end set, with --trace 1 the
 * per-layer set; a layer a workload does not exercise reads 0.
 */

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <new>
#include <set>
#include <sstream>
#include <unistd.h>

#include "perfbench.h"

// Allocations per thread, for sim.allocs_per_step.  The daemon is a
// separate binary and is not counted.
namespace {
thread_local uint64_t t_allocations = 0;
} // namespace

void *
operator new(std::size_t size)
{
    ++t_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace perfbench {

uint64_t
allocationCount()
{
    return t_allocations;
}

namespace {

/** Kill this process group: perfbench and every daemon it spawned. */
[[noreturn]] void
abortRun(const char *why)
{
    std::cerr << "perfbench: " << why << "\n";
    std::cerr.flush();
    kill(0, SIGKILL);
    std::_Exit(3);
}

} // namespace

SetupWatchdog::SetupWatchdog(double limit_s)
{
    thread_ = std::thread([this, limit_s] {
        std::unique_lock<std::mutex> lock(mu_);
        if (!cv_.wait_for(lock, std::chrono::duration<double>(limit_s),
                          [this] { return done_; }))
            abortRun("setup exceeded its time limit (a missing pulse "
                     "calibration would start a re-optimization)");
    });
}

SetupWatchdog::~SetupWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        done_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

namespace {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end set (--trace 0); every workload reports each. */
const std::vector<MetricSpec> kEndToEnd = {
    {"req_per_s", "req/s"},   {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"}, {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},   {"schedule_ns", "ns"},
};

/** The per-layer set (--trace 1). */
const std::vector<MetricSpec> kPerLayer = {
    {"jsonl.parse_us", "us"},
    {"circuit.gen_us", "us"},
    {"server.device_us", "us"},
    {"fingerprint.canon_us", "us"},
    {"fingerprint.hash_us", "us"},
    {"service.queue_ms_p50", "ms"},
    {"service.queue_ms_p90", "ms"},
    {"service.warm_boosted_share", "share"},
    {"service.coalesced", "count"},
    {"cache.probe_us", "us"},
    {"cache.mem_hit_share", "share"},
    {"cache.disk_hit_share", "share"},
    {"cache.evictions", "count"},
    {"artifact.write_ms", "ms"},
    {"artifact.decode_ms", "ms"},
    {"compile.route_ms", "ms"},
    {"compile.lower_ms", "ms"},
    {"compile.schedule_ms", "ms"},
    {"compile.pulses_ms", "ms"},
    {"compile.contention_x", "x"},
    {"compile.swaps", "count"},
    {"compile.layers", "count"},
    {"compile.setup_ms", "ms"},
    {"render.ms", "ms"},
    {"render.kb", "KiB"},
    {"response_kb", "KiB"},
    {"transport.write_us", "us"},
    {"sim.sv.ns_per_step", "ns"},
    {"sim.dm.ns_per_step", "ns"},
    {"sim.steps", "count"},
    {"sim.allocs_per_step", "count"},
    {"sim.ideal_ms", "ms"},
    {"sim.kernel_share.phase", "share"},
    {"sim.kernel_share.gate", "share"},
    {"sim.kernel_share.decoherence", "share"},
    {"quality.fidelity_gmean", "1"},
    {"quality.residual_zz", "rad/ns"},
    {"trace.overhead", "x"},
    {"trace.coverage", "share"},
    {"trace.gap_ms", "ms"},
};

int
usage()
{
    std::cerr << "usage: perfbench run --workload W --seed N --seconds S "
                 "--trace 0|1 [--daemon PATH]\n"
                 "       perfbench selftest\n";
    return 2;
}

/** The quantile helper and the request streams' determinism. */
bool
selfTest(std::string *error)
{
    if (!quantileSelfTest(error))
        return false;
    for (const char *w : {"cold", "warm", "tiered_mixed"}) {
        const std::string a = trafficBytes(w, 1, 600);
        if (a != trafficBytes(w, 1, 600)) {
            *error = std::string(w) + ": one seed gave two streams";
            return false;
        }
        if (a == trafficBytes(w, 2, 600)) {
            *error = std::string(w) + ": two seeds gave one stream";
            return false;
        }
        // Fresh lines never repeat a shape; repeats name a prewarm one.
        const ServiceTraffic t = makeTraffic(w, 1, 600);
        std::set<std::string> fresh;
        for (size_t i = 0; i < t.size(); ++i)
            if (t.repeat(i) < 0 && !fresh.insert(t.timed(i).line("")).second) {
                *error = std::string(w) + ": a fresh line repeats";
                return false;
            }
    }
    return true;
}

int
runCommand(const RunOptions &opt)
{
    std::string error;
    if (!selfTest(&error)) {
        std::cerr << "perfbench: " << error << "\n";
        return 1;
    }
    // The pulse store must be the per-run copy of calib/ the runner
    // prepares: a fallback store could start a re-optimization.
    if (!std::getenv("QZZ_PULSE_CACHE")) {
        std::cerr << "perfbench: QZZ_PULSE_CACHE is not set (use "
                     "perfbench/run.py)\n";
        return 2;
    }
    RunResult res;
    if (isServiceWorkload(opt.workload)) {
        if (opt.daemon.empty()) {
            std::cerr << "perfbench: --daemon is required for "
                      << opt.workload << "\n";
            return 2;
        }
        res = runService(opt);
    } else if (opt.workload == "fidelity") {
        res = runFidelity(opt);
    } else {
        std::cerr << "perfbench: unknown workload '" << opt.workload
                  << "'\n";
        return 2;
    }

    // Every metric of the mode, in the declared units; a layer the
    // workload did not exercise reads 0.
    const auto &specs = opt.trace ? kPerLayer : kEndToEnd;
    MetricMap out;
    for (const auto &spec : specs) {
        const auto it = res.metrics.find(spec.name);
        out[spec.name] = {it == res.metrics.end() ? 0.0 : it->second.value,
                          spec.unit};
        if (it != res.metrics.end() && it->second.unit != spec.unit)
            res.errors.push_back(std::string("unit mismatch for ") +
                                 spec.name);
    }
    for (const auto &[name, m] : res.metrics)
        if (!out.count(name))
            res.errors.push_back("undeclared metric " + name);

    std::ostringstream detail;
    detail << "{\"workload\":\"" << opt.workload
           << "\",\"trace\":" << (opt.trace ? 1 : 0)
           << ",\"env\":" << environmentJson(opt.seed) << ",\"detail\":{";
    bool first = true;
    for (const auto &[k, v] : res.detail) {
        detail << (first ? "" : ",") << jsonString(k) << ":" << fmt(v);
        first = false;
    }
    detail << "},\"errors\":[";
    for (size_t i = 0; i < res.errors.size(); ++i)
        detail << (i ? "," : "") << jsonString(res.errors[i]);
    detail << "]}";
    std::cout << detail.str() << "\n";
    for (const auto &e : res.errors)
        std::cerr << "perfbench: check failed: " << e << "\n";

    const bool correct = res.errors.empty() && res.failed == 0;
    std::ostringstream os;
    os << "{\"correct\":" << (correct ? "true" : "false")
       << ",\"attempted\":" << std::max<uint64_t>(res.attempted, 1)
       << ",\"failed\":"
       << (res.attempted == 0 ? 1 : res.failed) << ",\"metrics\":{";
    first = true;
    for (const auto &[name, m] : out) {
        os << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
           << fmt(m.value) << ",\"unit\":\"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    std::cout << os.str() << std::endl;
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    RunOptions opt;
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string value = argv[++i];
        try {
            if (arg == "--workload")
                opt.workload = value;
            else if (arg == "--seed")
                opt.seed = std::stoull(value);
            else if (arg == "--seconds")
                opt.seconds = std::stod(value);
            else if (arg == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (arg == "--daemon")
                opt.daemon = value;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }

    if (cmd == "selftest") {
        std::string error;
        if (!selfTest(&error)) {
            std::cerr << "perfbench selftest: FAILED: " << error << "\n";
            return 1;
        }
        std::cout << "perfbench selftest: ok\n";
        return 0;
    }
    if (cmd == "setup-probe")
        return setupProbe(opt.seed);
    if (cmd != "run" || opt.workload.empty() || !(opt.seconds > 0))
        return usage();

    // Own process group, so a watchdog can stop the daemons with us.
    setpgid(0, 0);
    try {
        return runCommand(opt);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
