/**
 * @file
 * The compiler: the paper's framework (Fig. 2) as one fixed pipeline
 * of four stages, run in this order by Compiler:
 *
 *  route     route every segment to the topology, threading the
 *            qubit layout from one segment to the next;
 *  lower     decompose to the native gate set;
 *  schedule  layer the native circuit with the SchedPolicy's entry
 *            point (parSchedule(), zzxSchedule(), zzxWeightedSchedule(),
 *            exactSchedule() or cycleAwareSchedule());
 *  pulses    attach the pulse library to the program.
 *
 * CompilerBuilder::build() makes the per-device tables the policy
 * needs once (ZzxDeviceTables for Zzx, ZzxWeighted and CycleAware,
 * ExactDeviceTables for Exact, none for Par), and every compile of the
 * Compiler reuses them.
 *
 * One seam selects what a stage uses without touching it: the
 * PulseProvider, the pulse-library source with shared ownership (the
 * process-wide calibration cache, or a fixed injected library, e.g. a
 * DD-substituted one).
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
    /** Stage name: "route", "lower", "schedule" or "pulses". */
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
// Pulse providers
// ---------------------------------------------------------------------------

/**
 * Source of pulse libraries with explicit shared ownership: the
 * returned shared_ptr keeps the library alive for as long as any
 * CompiledProgram references it, independent of process-global
 * caches.  library() must be thread-safe (compileBatch() calls it
 * from worker threads).
 */
class PulseProvider
{
  public:
    virtual ~PulseProvider() = default;

    /** The library for @p method; never nullptr on success. */
    virtual std::shared_ptr<const pulse::PulseLibrary>
    library(PulseMethod method) = 0;
};

/**
 * The default provider: the process-wide memo backed by the on-disk
 * calibration store (see getPulseLibraryShared()).
 */
class CachedPulseProvider final : public PulseProvider
{
  public:
    std::shared_ptr<const pulse::PulseLibrary>
    library(PulseMethod method) override;
};

/**
 * Serves one fixed library regardless of the requested method.  Used
 * to inject substituted libraries (e.g. substituteIdentity() DD
 * sequences) or experimental calibrations into the pipeline.
 */
class FixedPulseProvider final : public PulseProvider
{
  public:
    explicit FixedPulseProvider(pulse::PulseLibrary lib)
        : lib_(std::make_shared<const pulse::PulseLibrary>(
              std::move(lib)))
    {
    }
    explicit FixedPulseProvider(
        std::shared_ptr<const pulse::PulseLibrary> lib)
        : lib_(std::move(lib))
    {
    }

    std::shared_ptr<const pulse::PulseLibrary>
    library(PulseMethod method) override
    {
        (void)method;
        return lib_;
    }

  private:
    std::shared_ptr<const pulse::PulseLibrary> lib_;
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
 * The four-stage pipeline bound to one device and one configuration.
 * Built by CompilerBuilder; immutable and safe to share across
 * threads.  The per-device scheduling tables are precomputed at build
 * time and reused by every compile.
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
             std::shared_ptr<PulseProvider> provider);

    dev::Device device_;
    CompileOptions options_;
    /** Set for Zzx, ZzxWeighted and CycleAware; null otherwise. */
    std::shared_ptr<const ZzxDeviceTables> zzx_tables_;
    /** Set for Exact; null otherwise. */
    std::shared_ptr<const ExactDeviceTables> exact_tables_;
    std::shared_ptr<PulseProvider> provider_;
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
 * A custom PulseProvider overrides the pulseMethod() lookup.
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

    /** Inject a pulse source (overrides pulseMethod() lookup). */
    CompilerBuilder &pulseProvider(std::shared_ptr<PulseProvider> p);

    /** Assemble the Compiler (builds the per-device tables its
     *  SchedPolicy needs). */
    Compiler build() const;

  private:
    dev::Device device_;
    CompileOptions options_;
    std::shared_ptr<PulseProvider> provider_;
};

} // namespace qzz::core

#endif // QZZ_CORE_COMPILER_H
