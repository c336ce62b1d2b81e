/**
 * @file
 * The compiler: the paper's framework (Fig. 2) as one fixed pipeline
 * of three stages, run in this order by Compiler:
 *
 *  route     route every segment to the topology, threading the
 *            qubit layout from one segment to the next;
 *  lower     decompose to the native gate set;
 *  schedule  layer the native circuit with the SchedPolicy's entry
 *            point (parSchedule(), zzxSchedule(), zzxWeightedSchedule(),
 *            exactSchedule() or cycleAwareSchedule()).
 *
 * CompilerBuilder::build() fixes everything a compile reads besides
 * the circuit: the pulse library (the process-wide calibration memo
 * for the PulseMethod, or one injected with pulseLibrary(), e.g. a
 * DD-substituted one), the gate durations derived from it (e.g. DCG
 * stretches SX to 120 ns), and the per-device tables the policy needs
 * (ZzxDeviceTables for Zzx, ZzxWeighted and CycleAware,
 * ExactDeviceTables for Exact, none for Par).  Every compile of the
 * Compiler reuses them, and every program it compiles shares its
 * library.  A Compiler without a usable library is never built:
 * build() throws UserError when the injected library is null or lacks
 * an SX or Identity program.
 *
 * A compile does not throw: a failure lands on CompileResult::status,
 * named by the stage that failed, and every stage that ran records its
 * wall time and work counters in CompileResult::diagnostics.
 * unwrapOrThrow() turns a failed status back into an exception.
 *
 * A Compiler is immutable after CompilerBuilder::build() and safe to
 * share across threads: compileBatch() compiles many circuits on a
 * small thread pool while sharing the device routing tables, the
 * scheduling tables and the pulse library.
 */

#ifndef QZZ_CORE_COMPILER_H
#define QZZ_CORE_COMPILER_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/exact_sched.h"
#include "core/framework.h"

namespace qzz::core {

// ---------------------------------------------------------------------------
// Diagnostics and status channel
// ---------------------------------------------------------------------------

/** Wall time and work counters of one executed stage. */
struct StageDiagnostics
{
    /** Stage name: "route", "lower" or "schedule". */
    std::string stage;
    /** Wall-clock time spent in the stage (ms). */
    double wall_ms = 0.0;
    /** Offset of the stage start from the start of the compile (ms) —
     *  wall_ms laid out on a common timeline, so callers (the
     *  service's trace spans) can reconstruct per-stage intervals. */
    double start_ms = 0.0;
    /** Schedule layers appended by the stage (schedule stage). */
    int layers_added = 0;
    /** Native gates appended by the stage (lower stage). */
    int gates_added = 0;
};

/** Per-compilation diagnostics accumulated across the pipeline. */
struct CompileDiagnostics
{
    /** One entry per executed stage, in execution order. */
    std::vector<StageDiagnostics> stages;
    /** End-to-end compile wall time (ms). */
    double total_ms = 0.0;
    /** SWAPs inserted by routing (summed over segments). */
    int swaps_inserted = 0;
    /** Non-virtual layer count of the final schedule. */
    int physical_layers = 0;
    /** Mean unsuppressed-coupling count per physical layer. */
    double mean_nc = 0.0;
    /** Worst largest-region size over physical layers. */
    int max_nq = 0;
    /** Total schedule duration (ns). */
    double execution_time_ns = 0.0;
    /** Mean calibrated residual ZZ rate per physical layer (rad/ns):
     *  the NC metric weighted by the device snapshot's per-edge ZZ
     *  strengths (see core::residualZzRate()). */
    double mean_residual_zz = 0.0;
};

/** Outcome category of a compilation. */
enum class CompileStatusCode
{
    Ok,           ///< compilation succeeded
    InvalidInput, ///< caller error (bad circuit/options); maps to fatal()
    Internal,     ///< violated library invariant; maps to panic()
};

/** Structured error/status channel of one compilation. */
struct CompileStatus
{
    CompileStatusCode code = CompileStatusCode::Ok;
    /** Name of the stage that failed (empty on success or when the
     *  input was rejected before the first stage). */
    std::string pass;
    /** Human-readable failure description. */
    std::string message;

    bool ok() const { return code == CompileStatusCode::Ok; }
};

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/** The outcome of one compilation. */
struct CompileResult
{
    /** Valid only when status.ok(). */
    CompiledProgram program;
    CompileDiagnostics diagnostics;
    CompileStatus status;

    bool ok() const { return status.ok(); }
};

/**
 * The program of a successful @p result, or its failure as an
 * exception: InvalidInput via fatal() (UserError), Internal via
 * panic() (InternalError).  For callers that want a failed compile to
 * throw, such as the exp:: fidelity evaluators.
 */
CompiledProgram unwrapOrThrow(CompileResult result);

/** compileBatch() controls. */
struct BatchOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int num_threads = 0;
};

/** The outcome of a batch compilation. */
struct BatchResult
{
    /** One result per input circuit, in input order. */
    std::vector<CompileResult> results;
    /** End-to-end batch wall time (ms). */
    double wall_ms = 0.0;
    /** Resolved thread cap applied to the batch (the shared pool may
     *  hold fewer workers on small machines). */
    int threads_used = 0;

    /** True when every circuit compiled successfully. */
    bool allOk() const;
};

/**
 * The three-stage pipeline bound to one device and one configuration.
 * Built by CompilerBuilder; immutable and safe to share across
 * threads.  The pulse library, its gate durations and the per-device
 * scheduling tables are fixed at build time and reused by every
 * compile.
 */
class Compiler
{
  public:
    /** Compile one circuit. */
    CompileResult compile(const ckt::QuantumCircuit &circuit) const;

    /**
     * Compile a barrier-separated circuit: each segment is routed,
     * lowered and scheduled independently, with the qubit layout
     * threaded from one segment to the next; the schedule is the
     * concatenation (Sec. 8 composition with outer crosstalk passes).
     */
    CompileResult
    compileSegments(std::vector<ckt::QuantumCircuit> segments) const;

    /**
     * Compile @p circuits concurrently on a thread pool.  Routing
     * tables, scheduling tables and the pulse library are shared; each
     * circuit compiles with its own working state, and results land in
     * input order.  Output is identical to calling compile() sequentially.
     */
    BatchResult
    compileBatch(const std::vector<ckt::QuantumCircuit> &circuits,
                 const BatchOptions &opt = {}) const;

    const dev::Device &device() const { return device_; }
    const CompileOptions &options() const { return options_; }

  private:
    friend class CompilerBuilder;
    Compiler(dev::Device device, CompileOptions options,
             std::shared_ptr<const ZzxDeviceTables> zzx_tables,
             std::shared_ptr<const ExactDeviceTables> exact_tables,
             std::shared_ptr<const pulse::PulseLibrary> library);

    dev::Device device_;
    CompileOptions options_;
    /** Set for Zzx, ZzxWeighted and CycleAware; null otherwise. */
    std::shared_ptr<const ZzxDeviceTables> zzx_tables_;
    /** Set for Exact; null otherwise. */
    std::shared_ptr<const ExactDeviceTables> exact_tables_;
    /** Never null; attached to every compiled program. */
    const std::shared_ptr<const pulse::PulseLibrary> library_;
    /** GateDurations::fromLibrary(*library_). */
    const GateDurations durations_;
};

/**
 * Fluent builder for Compiler.
 *
 * @code
 *   core::Compiler c = core::CompilerBuilder(device)
 *                          .pulseMethod(core::PulseMethod::Pert)
 *                          .schedPolicy(core::SchedPolicy::Zzx)
 *                          .build();
 *   core::CompileResult r = c.compile(circuit);
 * @endcode
 *
 * An injected pulseLibrary() overrides the pulseMethod() lookup.
 */
class CompilerBuilder
{
  public:
    explicit CompilerBuilder(dev::Device device)
        : device_(std::move(device))
    {
    }

    /** Adopt a whole CompileOptions (pulse, sched, zzx). */
    CompilerBuilder &options(const CompileOptions &opt);
    CompilerBuilder &pulseMethod(PulseMethod m);
    CompilerBuilder &schedPolicy(SchedPolicy p);

    /** Inject a pulse library (overrides the pulseMethod() lookup;
     *  the program's pulse_method still names pulseMethod()). */
    CompilerBuilder &
    pulseLibrary(std::shared_ptr<const pulse::PulseLibrary> lib);

    /** Assemble the Compiler: fetch the pulse library and its gate
     *  durations, and build the per-device tables its SchedPolicy
     *  needs.  UserError when the injected library is null or has no
     *  SX or Identity program. */
    Compiler build() const;

  private:
    dev::Device device_;
    CompileOptions options_;
    /** Set by pulseLibrary(), null or not. */
    std::optional<std::shared_ptr<const pulse::PulseLibrary>> library_;
};

} // namespace qzz::core

#endif // QZZ_CORE_COMPILER_H
