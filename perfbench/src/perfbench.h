/**
 * @file
 * The workload runners of the perfbench binary.
 *
 *   service.cc   cold / warm / tiered_mixed: the compile_server daemon
 *                driven over a unix socket (end-to-end metrics), and
 *                with tracing on, the in-process replay next to it
 *   replay.cc    the traced replay: the same request lines pushed
 *                through each layer's public function in Session
 *                order, with spans kept in this process's memory
 *   fidelity.cc  the in-process compile + pulse-simulation pipeline
 */

#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "common.h"

namespace perfbench {

/** Command-line settings of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Path of the compile_server binary (service workloads). */
    std::string daemon;
};

/** Setups per run (setup_s is their median); for the service
 *  workloads also the number of daemon instances a run measures. */
inline constexpr int kSetups = 5;
/** Daemon (and replay) CompileService workers. */
inline constexpr int kWorkers = 4;

/** Closed-loop pipeline depth per connection (daemon and replay). */
inline constexpr int kWindow = 2;
/** Client connections (daemon) and replay sessions. */
inline constexpr int kConnections = 4;

RunResult runService(const RunOptions &opt);
/** Each fidelity setup is timed in a fresh process of this binary. */
RunResult runFidelity(const RunOptions &opt);
/** The fidelity setup in a child process: build, print "ready". */
int setupProbe(uint64_t seed);

/** Per-layer numbers of the traced replay of one service workload. */
struct ReplayReport
{
    MetricMap metrics;
    std::map<std::string, double> detail;
    std::vector<std::string> errors;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Median replay request wall (ms), for trace.gap_ms. */
    double wall_p50_ms = 0.0;
};

/** Run the replay of @p opt.workload for about @p seconds. */
ReplayReport runReplay(const RunOptions &opt, double seconds);

/** Median of three CompilerBuilder::build + pulse-library loads (ms),
 *  each after dropping the process's pulse-library memo. */
double compilerSetupMs();

/** Fail the process (exit code 3) if the setup phase outlives
 *  @p limit_s: a missing pulse calibration would otherwise start a
 *  multi-minute optimization instead of failing. */
class SetupWatchdog
{
  public:
    explicit SetupWatchdog(double limit_s);
    ~SetupWatchdog();
    SetupWatchdog(const SetupWatchdog &) = delete;
    SetupWatchdog &operator=(const SetupWatchdog &) = delete;

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;
    std::thread thread_;
};

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
