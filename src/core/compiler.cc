#include "core/compiler.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "circuit/decompose.h"
#include "common/error.h"
#include "common/parallel.h"

namespace qzz::core {

namespace {

using Clock = std::chrono::steady_clock;

double
millisecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** Per-device tables shared by every ZzxScheduler::schedule() call. */
struct ZzxTablesState final : SchedulerState
{
    explicit ZzxTablesState(const dev::Device &dev) : tables(dev) {}
    ZzxDeviceTables tables;
};

/** Per-device tables shared by every ExactScheduler::schedule() call. */
struct ExactTablesState final : SchedulerState
{
    explicit ExactTablesState(const dev::Device &dev) : tables(dev) {}
    ExactDeviceTables tables;
};

} // namespace

// ---------------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------------

Schedule
ParScheduler::schedule(const ckt::QuantumCircuit &native,
                       const dev::Device &dev,
                       const GateDurations &durations,
                       const SchedulerState *state) const
{
    (void)state;
    return parSchedule(native, dev, durations);
}

std::shared_ptr<const SchedulerState>
ZzxScheduler::prepare(const dev::Device &dev) const
{
    return std::make_shared<ZzxTablesState>(dev);
}

Schedule
ZzxScheduler::schedule(const ckt::QuantumCircuit &native,
                       const dev::Device &dev,
                       const GateDurations &durations,
                       const SchedulerState *state) const
{
    if (const auto *tables =
            dynamic_cast<const ZzxTablesState *>(state))
        return weighted_ ? zzxWeightedSchedule(native, dev, durations,
                                               opt_, tables->tables)
                         : zzxSchedule(native, dev, durations, opt_,
                                       tables->tables);
    return weighted_
               ? zzxWeightedSchedule(native, dev, durations, opt_)
               : zzxSchedule(native, dev, durations, opt_);
}

std::shared_ptr<const SchedulerState>
ExactScheduler::prepare(const dev::Device &dev) const
{
    return std::make_shared<ExactTablesState>(dev);
}

Schedule
ExactScheduler::schedule(const ckt::QuantumCircuit &native,
                         const dev::Device &dev,
                         const GateDurations &durations,
                         const SchedulerState *state) const
{
    if (const auto *tables =
            dynamic_cast<const ExactTablesState *>(state))
        return exactSchedule(native, dev, durations, opt_,
                             ExactLimits{}, tables->tables);
    return exactSchedule(native, dev, durations, opt_);
}

std::shared_ptr<const SchedulerState>
CycleScheduler::prepare(const dev::Device &dev) const
{
    return std::make_shared<ZzxTablesState>(dev);
}

Schedule
CycleScheduler::schedule(const ckt::QuantumCircuit &native,
                         const dev::Device &dev,
                         const GateDurations &durations,
                         const SchedulerState *state) const
{
    if (const auto *tables =
            dynamic_cast<const ZzxTablesState *>(state))
        return cycleAwareSchedule(native, dev, durations, opt_,
                                  tables->tables);
    return cycleAwareSchedule(native, dev, durations, opt_);
}

std::shared_ptr<const Scheduler>
makeScheduler(SchedPolicy policy, const ZzxOptions &zzx)
{
    switch (policy) {
    case SchedPolicy::Par:
        return std::make_shared<ParScheduler>();
    case SchedPolicy::Zzx:
    case SchedPolicy::ZzxWeighted:
        return std::make_shared<ZzxScheduler>(
            zzx, policy == SchedPolicy::ZzxWeighted);
    case SchedPolicy::Exact:
        return std::make_shared<ExactScheduler>(zzx);
    case SchedPolicy::CycleAware:
        return std::make_shared<CycleScheduler>(zzx);
    }
    panic("makeScheduler: unknown policy");
}

// ---------------------------------------------------------------------------
// Pulse providers
// ---------------------------------------------------------------------------

std::shared_ptr<const pulse::PulseLibrary>
CachedPulseProvider::library(PulseMethod method)
{
    return getPulseLibraryShared(method);
}

std::shared_ptr<PulseProvider>
defaultPulseProvider()
{
    return std::make_shared<CachedPulseProvider>();
}

// ---------------------------------------------------------------------------
// The pipeline stages
// ---------------------------------------------------------------------------

namespace {

/**
 * Run one stage of the compile @p out unless an earlier stage failed:
 * record its StageDiagnostics and map an exception it throws onto the
 * status channel — UserError as InvalidInput, anything else as
 * Internal, so nothing escapes a compileBatch() worker thread
 * (std::terminate).
 */
template <typename Stage>
void
runStage(const char *name, Clock::time_point compile_start,
         CompileResult &out, Stage &&stage)
{
    if (!out.ok())
        return;
    StageDiagnostics diag;
    diag.stage = name;
    const auto layers_before = out.program.schedule.layers.size();
    const auto gates_before = out.program.native.size();
    const auto stage_start = Clock::now();
    diag.start_ms = millisecondsSince(compile_start);
    try {
        stage();
    } catch (const UserError &e) {
        out.status = {CompileStatusCode::InvalidInput, name, e.what()};
    } catch (const std::exception &e) {
        out.status = {CompileStatusCode::Internal, name, e.what()};
    }
    diag.wall_ms = millisecondsSince(stage_start);
    diag.layers_added =
        int(out.program.schedule.layers.size() - layers_before);
    diag.gates_added = int(out.program.native.size() - gates_before);
    out.diagnostics.stages.push_back(std::move(diag));
}

/**
 * Route every segment to the topology.  The permutation left by one
 * segment's SWAPs is the next segment's initial layout; the last one
 * lands in @p final_layout.
 */
std::vector<ckt::QuantumCircuit>
routeSegments(const std::vector<ckt::QuantumCircuit> &segments,
              const graph::Graph &topo, std::vector<int> &final_layout,
              int &swaps_inserted)
{
    const int logical_qubits = segments.front().numQubits();
    std::vector<int> layout;
    std::vector<ckt::QuantumCircuit> routed;
    for (const ckt::QuantumCircuit &segment : segments) {
        require(segment.numQubits() == logical_qubits,
                "route: register size mismatch between segments");
        ckt::RoutedCircuit r = ckt::routeCircuit(segment, topo, layout);
        layout = std::move(r.final_layout);
        swaps_inserted += r.swaps_inserted;
        routed.push_back(std::move(r.circuit));
    }
    final_layout = std::move(layout);
    return routed;
}

/** Lower the routed segments to the native gate set, appending every
 *  native gate to @p program as well. */
std::vector<ckt::QuantumCircuit>
lowerSegments(const std::vector<ckt::QuantumCircuit> &routed,
              const graph::Graph &topo, ckt::QuantumCircuit &program)
{
    std::vector<ckt::QuantumCircuit> lowered;
    for (const ckt::QuantumCircuit &segment : routed) {
        ckt::QuantumCircuit native = ckt::decomposeToNative(segment);
        ensure(ckt::respectsConnectivity(native, topo),
               "lower: connectivity violated after decomposition");
        for (const ckt::Gate &g : native.gates())
            program.add(g);
        lowered.push_back(std::move(native));
    }
    return lowered;
}

/**
 * Attach the provider's library to @p out (once) and derive the gate
 * durations from it.  False — with the status set — when the provider
 * has no library to give.
 */
bool
fetchLibrary(PulseProvider &provider, PulseMethod method,
             CompileResult &out, GateDurations &durations)
{
    if (out.program.library)
        return true;
    std::shared_ptr<const pulse::PulseLibrary> lib =
        provider.library(method);
    if (!lib) {
        out.status = {CompileStatusCode::InvalidInput, "pulses",
                      "pulse provider returned no library"};
        return false;
    }
    out.program.library = std::move(lib);
    durations = GateDurations::fromLibrary(*out.program.library);
    return true;
}

} // namespace

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

CompiledProgram
unwrapOrThrow(CompileResult result)
{
    if (result.ok())
        return std::move(result.program);
    if (result.status.code == CompileStatusCode::Internal)
        panic(result.status.message);
    fatal(result.status.message);
}

bool
BatchResult::allOk() const
{
    return std::all_of(results.begin(), results.end(),
                       [](const CompileResult &r) { return r.ok(); });
}

Compiler::Compiler(dev::Device device, CompileOptions options,
                   std::shared_ptr<const Scheduler> scheduler,
                   std::shared_ptr<PulseProvider> provider)
    : device_(std::move(device)), options_(options),
      scheduler_(std::move(scheduler)), provider_(std::move(provider))
{
    scheduler_state_ = scheduler_->prepare(device_);
}

CompileResult
Compiler::compile(const ckt::QuantumCircuit &circuit) const
{
    return compileSegments({circuit});
}

CompileResult
Compiler::compileSegments(
    std::vector<ckt::QuantumCircuit> segments) const
{
    CompileResult out;
    out.program.pulse_method = options_.pulse;
    out.program.sched_policy = options_.sched;
    out.program.calib_epoch = device_.calibration().epoch;
    if (segments.empty()) {
        out.status = {CompileStatusCode::InvalidInput, "",
                      "compileSegments: no segments given"};
        return out;
    }

    const auto compile_start = Clock::now();
    std::vector<ckt::QuantumCircuit> routed, native;
    GateDurations durations;
    runStage("route", compile_start, out, [&] {
        routed = routeSegments(segments, device_.graph(),
                               out.program.final_layout,
                               out.diagnostics.swaps_inserted);
    });
    runStage("lower", compile_start, out, [&] {
        out.program.native = ckt::QuantumCircuit(
            device_.numQubits(), segments.front().name());
        native = lowerSegments(routed, device_.graph(),
                               out.program.native);
    });
    runStage("schedule", compile_start, out, [&] {
        // Durations come from the pulse library (e.g. DCG stretches
        // SX to 120 ns), so the library is fetched here, before the
        // pulses stage.
        if (!fetchLibrary(*provider_, options_.pulse, out, durations))
            return;
        Schedule &schedule = out.program.schedule;
        schedule.num_qubits = device_.numQubits();
        for (const ckt::QuantumCircuit &segment : native) {
            Schedule part = scheduler_->schedule(
                segment, device_, durations, scheduler_state_.get());
            for (Layer &layer : part.layers)
                schedule.layers.push_back(std::move(layer));
        }
    });
    runStage("pulses", compile_start, out, [&] {
        // The schedule stage already attached the library for its
        // durations, so this finds it in place; the stage is kept so
        // diagnostics and trace spans show all four stages.
        fetchLibrary(*provider_, options_.pulse, out, durations);
    });
    out.diagnostics.total_ms = millisecondsSince(compile_start);
    if (out.ok()) {
        const Schedule &sched = out.program.schedule;
        out.diagnostics.physical_layers = sched.physicalLayerCount();
        out.diagnostics.mean_nc = sched.meanNc();
        out.diagnostics.max_nq = sched.maxNq();
        out.diagnostics.execution_time_ns = sched.executionTime();
        out.diagnostics.mean_residual_zz =
            meanResidualZz(sched, device_.couplings());
    }
    return out;
}

BatchResult
Compiler::compileBatch(const std::vector<ckt::QuantumCircuit> &circuits,
                       const BatchOptions &opt) const
{
    BatchResult out;
    out.results.resize(circuits.size());

    int threads = opt.num_threads;
    if (threads <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw > 0 ? int(hw) : 4;
    }
    threads = std::max(1, std::min<int>(threads, int(circuits.size())));

    const auto start = Clock::now();
    // Warm the shared pulse library before fanning out, so the
    // workers never serialize on a cold calibration build; a failure
    // here is surfaced per-circuit through the status channel.
    try {
        provider_->library(options_.pulse);
    } catch (const std::exception &) {
    }

    // Fan out over the shared work pool (one circuit per block) —
    // repeated batches reuse the process-wide workers instead of
    // spawning a fresh std::thread set per call.
    common::parallelFor(
        0, circuits.size(), 1,
        [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i)
                out.results[i] = compile(circuits[i]);
        },
        threads);

    out.wall_ms = millisecondsSince(start);
    out.threads_used = threads;
    return out;
}

// ---------------------------------------------------------------------------
// CompilerBuilder
// ---------------------------------------------------------------------------

CompilerBuilder &
CompilerBuilder::options(const CompileOptions &opt)
{
    options_ = opt;
    return *this;
}

CompilerBuilder &
CompilerBuilder::pulseMethod(PulseMethod m)
{
    options_.pulse = m;
    return *this;
}

CompilerBuilder &
CompilerBuilder::schedPolicy(SchedPolicy p)
{
    options_.sched = p;
    return *this;
}

CompilerBuilder &
CompilerBuilder::scheduler(std::shared_ptr<const Scheduler> s)
{
    scheduler_ = std::move(s);
    return *this;
}

CompilerBuilder &
CompilerBuilder::pulseProvider(std::shared_ptr<PulseProvider> p)
{
    provider_ = std::move(p);
    return *this;
}

Compiler
CompilerBuilder::build() const
{
    std::shared_ptr<const Scheduler> scheduler =
        scheduler_ ? scheduler_
                   : makeScheduler(options_.sched, options_.zzx);
    std::shared_ptr<PulseProvider> provider =
        provider_ ? provider_ : defaultPulseProvider();
    return Compiler(device_, options_, std::move(scheduler),
                    std::move(provider));
}

} // namespace qzz::core
