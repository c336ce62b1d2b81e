/**
 * @file
 * Shared pieces of the perfbench binary: the seeded request-stream
 * generator, exact order statistics, metric output, and the
 * environment stamp.
 *
 * The generator is the only source of benchmark inputs.  The daemon
 * load generator and the traced in-process replay both consume the
 * lines it produces, so the two runs see byte-identical traffic for
 * one seed.
 */

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds / milliseconds between two steady-clock points. */
double secondsBetween(Clock::time_point a, Clock::time_point b);
double msBetween(Clock::time_point a, Clock::time_point b);

/** SplitMix64: a tiny PRNG whose output is fixed by the seed alone,
 *  on every platform and standard library. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform integer in [0, n). */
    uint64_t below(uint64_t n) { return next() % n; }

  private:
    uint64_t state_;
};

/** One request shape: everything a compile_server line names. */
struct RequestShape
{
    std::string family;
    int qubits = 0;
    uint64_t seed = 1;
    std::string sched;
    std::string pulse;
    std::string topology; ///< "grid" or "ring"
    uint64_t device_seed = 7;

    /** The JSON line (no trailing newline) the daemon receives. */
    std::string line(const std::string &id) const;
};

/** The request streams of one service workload. */
struct ServiceTraffic
{
    /** Compiled during setup (outside the timed phase). */
    std::vector<RequestShape> prewarm;
    /** Shapes that must compile cold when they are sent. */
    std::vector<RequestShape> fresh;
    /** The timed stream, consumed in order until time runs out: k >= 0
     *  repeats prewarm[k], k < 0 sends fresh[-1 - k]. */
    std::vector<int32_t> order;

    size_t size() const { return order.size(); }
    const RequestShape &
    timed(size_t i) const
    {
        const int32_t k = order[i];
        return k >= 0 ? prewarm[size_t(k)] : fresh[size_t(-1 - k)];
    }
    /** The prewarm shape line @p i repeats, or -1 for a fresh line. */
    int repeat(size_t i) const { return order[i] >= 0 ? order[i] : -1; }
};

/** Daemon settings a service workload runs under (all run
 *  --workers 4, see kWorkers). */
struct DaemonSettings
{
    size_t cache_capacity = 256;
    bool artifact_dir = false;
    uint64_t gc_capacity_bytes = 0;
};

bool isServiceWorkload(const std::string &workload);
DaemonSettings daemonSettings(const std::string &workload);

/**
 * The seeded traffic of @p workload ("cold", "warm", "tiered_mixed"),
 * @p timed_lines timed lines long.  Deterministic in (workload, seed,
 * timed_lines).
 */
ServiceTraffic makeTraffic(const std::string &workload, uint64_t seed,
                           size_t timed_lines);

/** Timed lines to generate for a run of @p seconds: far more than
 *  any run consumes (running out fails the run, it never repeats). */
size_t trafficCapacity(const std::string &workload, double seconds);

/** The whole byte stream of makeTraffic() (prewarm then timed lines),
 *  for the determinism self-test. */
std::string trafficBytes(const std::string &workload, uint64_t seed,
                         size_t timed_lines);

/** Exact order statistics over raw samples (no bucketing). */
struct Summary
{
    size_t n = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double max = 0.0;
    double mean = 0.0;
};

/**
 * Nearest-rank quantile of @p sorted (ascending): the smallest sample
 * with at least a share @p q of the samples at or below it.  Never
 * above the maximum, always an observed value; 0 when empty.
 */
double quantileSorted(const std::vector<double> &sorted, double q);
/**
 * Linearly interpolated quantile of @p sorted (ascending), between the
 * two samples around rank q (n - 1): continuous in the samples, so a
 * small set of unlike values (the fidelity evaluations' medians) does
 * not jump between neighbours.  Within [min, max]; 0 when empty.
 */
double quantileLinear(const std::vector<double> &sorted, double q);
Summary summarize(std::vector<double> samples);
double median(std::vector<double> samples);

/** Check the quantile helper on known sets; false with a message on
 *  the first failure. */
bool quantileSelfTest(std::string *error);

/** Cache and service counters over one timed phase: from the
 *  daemon's registry (qzz_cache_*, qzz_service_*) or, in the replay,
 *  from ProgramCacheStats and MetricsSnapshot. */
struct CacheCounts
{
    double hits = 0, disk_hits = 0, misses = 0, evictions = 0;
    double disk_writes = 0, coalesced = 0;

    double lookups() const { return hits + disk_hits + misses; }
    CacheCounts plus(const CacheCounts &o) const;
    CacheCounts minus(const CacheCounts &o) const;
};

/**
 * The workload self-check: cold has no hit and nothing coalesced,
 * warm a hit share of exactly 1.0, tiered_mixed disk hits, evictions
 * and artifact writes.  Empty when it holds, else what failed.
 */
std::string selfCheck(const std::string &workload, const CacheCounts &c);

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/** Outcome of one workload run. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Output and workload self-check failures (empty = correct). */
    std::vector<std::string> errors;
    MetricMap metrics;
    /** Sample counts and maxima of every quantile, self-check
     *  tallies and other context, printed on the detail line. */
    std::map<std::string, double> detail;
};

/** Render a double with every significant digit (max_digits10). */
std::string fmt(double v);

/** @p s as a JSON string literal (quotes included). */
std::string jsonString(const std::string &s);

/** The "env" object of the detail line: CPU model, ISA flags, nproc,
 *  build type, vector-kernel setting, commit, seed. */
std::string environmentJson(uint64_t seed);

/** CPU time the hypervisor gave to other guests, summed over this
 *  machine's CPUs (s; /proc/stat "steal").  Reported beside timings:
 *  on a shared host it is the main source of run-to-run spread. */
double stolenSeconds();

/** Peak resident set of this process (MiB). */
double selfPeakRssMb();
/** VmHWM of process @p pid (MiB); 0 if unreadable. */
double pidPeakRssMb(int pid);

/** Allocations the calling thread has made through the global
 *  operator new (counted by the replacement operator in main.cc). */
uint64_t allocationCount();

/** Sum of every sample of the metric family @p name whose labels
 *  include all of @p labels, read from a Prometheus text body. */
double promValue(const std::string &exposition, const std::string &name,
                 const std::map<std::string, std::string> &labels = {});

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
