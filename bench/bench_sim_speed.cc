/**
 * @file
 * Simulation-engine speed benchmark: the density-matrix Strang step
 * and propagator memoization against the retained scalar reference
 * paths (PulseSimOptions::scalar_reference), per step and
 * end-to-end.
 *
 * Both paths run in the same process on the same inputs and must
 * agree numerically before any timing is reported, so the published
 * speedups are always apples-to-apples.  Publishes
 * BENCH_sim_speed.json (path from argv[1]) and exits non-zero when
 * the end-to-end speedup falls below the acceptance bar — the CI
 * perf job gates on the scalar/optimized *ratio*, which is portable
 * across machines, not on absolute times.
 *
 * QZZ_QUICK=1 shrinks the workload to the 4-qubit suite entry and
 * relaxes the bar (2.5x instead of 5x): quick runs exist to catch
 * "the optimization stopped engaging", not to certify peak speed.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>
#include <utility>

#include "bench_common.h"
#include "sim/drive_step.h"

// ----------------------------------------------------------------
// Allocation counter.  The memoized hot path promises zero heap per
// integrator step; counting every operator new during a run (divided
// by the step count) verifies that promise end-to-end rather than by
// code inspection.
// ----------------------------------------------------------------
namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void *
countedAlloc(std::size_t sz)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(sz ? sz : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *
operator new(std::size_t sz)
{
    return countedAlloc(sz);
}

void *
operator new[](std::size_t sz)
{
    return countedAlloc(sz);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace qzz;

namespace {

using Clock = std::chrono::steady_clock;

/** Wall time (ns) of one call of @p fn. */
template <typename Fn>
double
timeNs(const Fn &fn)
{
    const auto t0 = Clock::now();
    fn();
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/** Best-of-reps wall times (ns) of one call of @p scalar and of
 *  @p optimized: robust against one-off scheduler noise without
 *  needing many repetitions.  The two are alternated call by call so
 *  that both see the same host (clock speed, neighbours), and their
 *  ratio does not depend on when the host changed. */
template <typename S, typename O>
std::pair<double, double>
bestPairNs(int reps, const S &scalar, const O &optimized)
{
    std::pair<double, double> best;
    for (int r = 0; r < reps; ++r) {
        const double s = timeNs(scalar);
        const double o = timeNs(optimized);
        best.first = r == 0 ? s : std::min(best.first, s);
        best.second = r == 0 ? o : std::min(best.second, o);
    }
    return best;
}

/** A reproducible non-trivial mixed state: |0..0><0..0| pushed
 *  through a few drive propagators so every element is nonzero. */
sim::DensityMatrix
warmState(int n, const pulse::PulseLibrary &lib)
{
    sim::DensityMatrix rho(n);
    const la::CMatrix u2 =
        sim::drive1QStepScalar(lib.get(pulse::PulseGate::SX), 7.0, 0.4);
    const la::CMatrix u4 =
        sim::drive2QStepScalar(lib.get(pulse::PulseGate::RZX), 31.0, 0.4);
    for (int q = 0; q < n; ++q)
        rho.apply1QScalar(u2, q);
    for (int q = 0; q + 1 < n; ++q)
        rho.apply2QScalar(u4, q, q + 1);
    return rho;
}

struct KernelResult
{
    std::string kernel;
    int qubits = 0;
    double scalar_ns = 0.0;
    double optimized_ns = 0.0;

    double speedup() const
    {
        return optimized_ns > 0.0 ? scalar_ns / optimized_ns : 0.0;
    }
};

struct E2eResult
{
    std::string name;
    std::string benchmark;
    int qubits = 0;
    size_t steps = 0;
    double scalar_ms = 0.0;
    double optimized_ms = 0.0;
    double agreement = 0.0; ///< max |optimized - scalar| (elementwise)
    double optimized_allocs_per_step = 0.0;
    double scalar_allocs_per_step = 0.0;

    double speedup() const
    {
        return optimized_ms > 0.0 ? scalar_ms / optimized_ms : 0.0;
    }
};

/** Total integrator steps a schedule takes at @p dt (mirrors the
 *  simulators' layerSteps: ceil(duration / dt), at least one). */
size_t
totalSteps(const core::Schedule &sched, double dt)
{
    size_t steps = 0;
    for (const core::Layer &layer : sched.layers) {
        if (layer.is_virtual || layer.duration <= 0.0)
            continue;
        steps += std::max<size_t>(
            1, size_t(std::ceil(layer.duration / dt)));
    }
    return steps;
}

uint64_t
countedAllocsDuring(const std::function<void()> &fn)
{
    g_alloc_count.store(0, std::memory_order_relaxed);
    g_count_allocs.store(true, std::memory_order_relaxed);
    fn();
    g_count_allocs.store(false, std::memory_order_relaxed);
    return g_alloc_count.load(std::memory_order_relaxed);
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_sim_speed.json";
    const bool quick = exp::quickMode();
    // The acceptance bar: the optimized engine must beat the scalar
    // reference end-to-end by 5x in full mode (the issue's 5-10x
    // target).  Quick mode runs the 4-qubit entry where fixed
    // per-layer costs weigh more, so it only guards 2.5x.
    const double required_speedup = quick ? 2.5 : 5.0;

    bench::banner("bench_sim_speed",
                  "fused/memoized simulation engine vs scalar "
                  "reference");
    std::cout << (quick ? "quick mode (QZZ_QUICK)" : "full mode")
              << "; acceptance bar: " << formatX(required_speedup)
              << " end-to-end\n\n";

    // ------------------------------------------------------------
    // Per-step timings on a 6-qubit (64x64) density matrix — the
    // register size of the paper's Fig. 23 decoherence study.
    // ------------------------------------------------------------
    const pulse::PulseLibrary lib = pulse::PulseLibrary::gaussian();
    const int kn = 6;
    const size_t kdim = size_t(1) << kn;
    // Best of many short samples: a ratio of two kernels that load the
    // memory system differently moves with what else the host runs,
    // and more samples over a longer window find a quiet moment.
    const int kreps = 1000;

    const la::CMatrix u2m =
        sim::drive1QStepScalar(lib.get(pulse::PulseGate::SX), 10.0, 0.1);
    const la::CMatrix u4m = sim::drive2QStepScalar(
        lib.get(pulse::PulseGate::RZX), 40.0, 0.1);
    const la::Mat2 u2 = la::toMat2(u2m);
    const la::Mat4 u4 = la::toMat4(u4m);

    std::vector<double> energies(kdim);
    for (size_t i = 0; i < kdim; ++i)
        energies[i] = 1e-3 * double(i % 17) - 5e-3;
    const double kdt = 0.1;

    std::vector<double> gamma(size_t(kn), 0.0);
    std::vector<double> keep(size_t(kn), 1.0);
    for (int q = 0; q < kn; ++q) {
        // Mix lossy, dephasing-only and coherent qubits, as a
        // calibrated device would present.
        gamma[size_t(q)] = q % 3 == 0 ? 0.0 : 2e-5 * double(q + 1);
        keep[size_t(q)] = q % 3 == 1 ? 1.0 : 1.0 - 1e-5 * double(q + 1);
    }

    sim::DensityMatrix rho = warmState(kn, lib);
    std::vector<KernelResult> kernels;
    // One arm: each side makes @p calls operations per timed call, so
    // that an operation too short to time alone is timed in a batch;
    // the results are per operation.
    const auto arm = [&](const char *name, int qubits, int calls,
                         const auto &scalar, const auto &optimized) {
        const auto [s, o] = bestPairNs(kreps, scalar, optimized);
        kernels.push_back({name, qubits, s / calls, o / calls});
    };

    // Whole Strang steps of the density-matrix simulator, each the
    // call sequence DensityMatrixScheduleSimulator::runLayerImpl makes
    // against the one runLayerScalar makes for the same step.
    {
        const la::CVector p_half = sim::phaseVector(energies, kdt / 2.0);
        const la::CVector p_full = sim::phaseVector(energies, kdt);
        sim::DecoherenceChannel channel;
        channel.assign(kn, gamma, keep);
        // Scalar: phase / gates / phase / channel sweeps.
        const auto scalarStep = [&](const auto &gates) {
            return [&rho, &energies, &gamma, &keep, kdt, gates] {
                rho.applyDiagonalPhase(energies, kdt / 2.0);
                gates();
                rho.applyDiagonalPhase(energies, kdt / 2.0);
                rho.applyDecoherenceScalar(gamma, keep);
            };
        };
        // Optimized: A (A rho)^dag with the phases folded in and the
        // factor table in the last store, then the transfer passes.
        const auto optimizedStep = [&](const sim::StepJob *jobs,
                                       size_t count) {
            return [&rho, &p_half, &channel, jobs, count] {
                rho.applyStepUnitary(jobs, count, p_half, channel);
                rho.applyTransfers(channel);
            };
        };
        const sim::StepJob jobs[] = {
            {u4.data(), 1, 4}, {u2.data(), 0, -1}, {u2.data(), 2, -1}};
        arm("dm_step", kn, 1, scalarStep([&] {
                rho.apply2QScalar(u4m, 1, 4);
                rho.apply1QScalar(u2m, 0);
                rho.apply1QScalar(u2m, 2);
            }),
            optimizedStep(jobs, 3));
        arm("dm_step_1q", kn, 1,
            scalarStep([&] { rho.apply1QScalar(u2m, 2); }),
            optimizedStep(jobs + 2, 1));
        arm("dm_step_2q", kn, 1,
            scalarStep([&] { rho.apply2QScalar(u4m, 1, 4); }),
            optimizedStep(jobs, 1));
        // A step whose pulses have all ended: one phase pass carrying
        // the factor table, then the transfer passes.
        arm("dm_idle_step", kn, 1, scalarStep([] {}), [&] {
            rho.applyPhaseVector(p_full, channel);
            rho.applyTransfers(channel);
        });
    }

    // The propagator memo against recomputation: what each gate of a
    // layer (beyond the first of its kind) pays per step.  A memo hit
    // costs about as much as reading the clock, so both sides are
    // timed in batches.
    {
        sim::StepPropagatorMemo memo;
        const pulse::PulseProgram &rzx =
            lib.get(pulse::PulseGate::RZX);
        memo.get2Q(rzx, pulse::PulseGate::RZX, 0, kdt); // warm
        constexpr int kBatch = 64;
        arm(
            "propagator2Q", 2, kBatch,
            [&] {
                la::Mat4 out;
                for (int i = 0; i < kBatch; ++i)
                    sim::drive2QStep(rzx, 0.5 * kdt, kdt, out);
            },
            [&] {
                for (int i = 0; i < kBatch; ++i)
                    (void)memo.get2Q(rzx, pulse::PulseGate::RZX, 0, kdt);
            });
    }

    Table ktable({"kernel", "qubits", "scalar ns/op",
                  "optimized ns/op", "speedup"});
    ktable.setTitle("per-kernel (density matrix, best of " +
                    std::to_string(kreps) + ")");
    for (const KernelResult &k : kernels)
        ktable.addRow({k.kernel, std::to_string(k.qubits),
                       formatF(k.scalar_ns, 0),
                       formatF(k.optimized_ns, 0),
                       formatX(k.speedup())});
    ktable.print(std::cout);
    std::cout << "\n";

    // ------------------------------------------------------------
    // End-to-end: the Fig. 20 (state-vector) and Fig. 23
    // (density-matrix + decoherence) methodology, scalar vs
    // optimized on the identical compiled schedule.
    // ------------------------------------------------------------
    exp::SuiteConfig scfg;
    scfg.max_qubits = quick ? 4 : 6;
    const auto suite = exp::buildSuite(scfg);
    const int want_n = quick ? 4 : 6;
    const exp::SuiteEntry *entry = nullptr;
    for (const auto &e : suite)
        if (e.circuit.numQubits() == want_n) {
            entry = &e;
            break;
        }
    if (!entry) {
        std::cerr << "no " << want_n << "-qubit suite entry\n";
        return 1;
    }

    const core::CompileOptions copt{core::PulseMethod::Gaussian,
                                    core::SchedPolicy::Par,
                                    {}};
    // Quick runs are the ones CI gates on, and their runs are short,
    // so they take the best of more of them.
    const int e2e_reps = quick ? 10 : 3;

    sim::PulseSimOptions base_opt;
    base_opt.dt = 0.1;
    base_opt.telemetry = false; // time the kernels, not the metrics
    sim::PulseSimOptions scalar_opt = base_opt;
    scalar_opt.scalar_reference = true;

    std::vector<E2eResult> e2e;

    // Fig. 20 style: closed-system state-vector simulation.
    {
        const core::Compiler compiler =
            core::CompilerBuilder(entry->device).options(copt).build();
        const core::CompiledProgram prog =
            core::unwrapOrThrow(compiler.compile(entry->circuit));

        const sim::PulseScheduleSimulator opt_sim(
            entry->device, *prog.library, base_opt);
        const sim::PulseScheduleSimulator ref_sim(
            entry->device, *prog.library, scalar_opt);

        sim::StateVector psi_opt = opt_sim.run(prog.schedule);
        const sim::StateVector psi_ref = ref_sim.run(prog.schedule);
        double max_diff = 0.0;
        for (size_t i = 0; i < psi_opt.dim(); ++i)
            max_diff = std::max(
                max_diff,
                std::abs(psi_opt.amplitudes()[i] -
                         psi_ref.amplitudes()[i]));

        E2eResult r;
        r.name = "fig20_statevector";
        r.benchmark = entry->label;
        r.qubits = want_n;
        r.steps = totalSteps(prog.schedule, base_opt.dt);
        r.agreement = max_diff;
        const auto [scalar_ns, optimized_ns] = bestPairNs(
            e2e_reps, [&] { psi_opt = ref_sim.run(prog.schedule); },
            [&] { psi_opt = opt_sim.run(prog.schedule); });
        r.scalar_ms = scalar_ns / 1e6;
        r.optimized_ms = optimized_ns / 1e6;
        const uint64_t opt_allocs = countedAllocsDuring(
            [&] { psi_opt = opt_sim.run(prog.schedule); });
        const uint64_t ref_allocs = countedAllocsDuring(
            [&] { psi_opt = ref_sim.run(prog.schedule); });
        r.optimized_allocs_per_step =
            double(opt_allocs) / double(r.steps);
        r.scalar_allocs_per_step =
            double(ref_allocs) / double(r.steps);
        e2e.push_back(r);
    }

    // Fig. 23 style: open-system density-matrix simulation with
    // T1 = T2 = 200 us, the study's middle coherence point.
    {
        const dev::Device device =
            entry->device.withCoherence(us(200.0), us(200.0));
        const core::Compiler compiler =
            core::CompilerBuilder(device).options(copt).build();
        const core::CompiledProgram prog =
            core::unwrapOrThrow(compiler.compile(entry->circuit));

        const sim::DensityMatrixScheduleSimulator opt_sim(
            device, *prog.library, base_opt);
        const sim::DensityMatrixScheduleSimulator ref_sim(
            device, *prog.library, scalar_opt);

        sim::DensityMatrix rho_opt = opt_sim.run(prog.schedule);
        const sim::DensityMatrix rho_ref = ref_sim.run(prog.schedule);
        double max_diff = 0.0;
        const la::CMatrix &mo = rho_opt.matrix();
        const la::CMatrix &mr = rho_ref.matrix();
        for (size_t r0 = 0; r0 < rho_opt.dim(); ++r0)
            for (size_t c = 0; c < rho_opt.dim(); ++c)
                max_diff = std::max(max_diff,
                                    std::abs(mo(r0, c) - mr(r0, c)));

        E2eResult r;
        r.name = "fig23_density";
        r.benchmark = entry->label;
        r.qubits = want_n;
        r.steps = totalSteps(prog.schedule, base_opt.dt);
        r.agreement = max_diff;
        const auto [scalar_ns, optimized_ns] = bestPairNs(
            e2e_reps, [&] { rho_opt = ref_sim.run(prog.schedule); },
            [&] { rho_opt = opt_sim.run(prog.schedule); });
        r.scalar_ms = scalar_ns / 1e6;
        r.optimized_ms = optimized_ns / 1e6;
        const uint64_t opt_allocs = countedAllocsDuring(
            [&] { rho_opt = opt_sim.run(prog.schedule); });
        const uint64_t ref_allocs = countedAllocsDuring(
            [&] { rho_opt = ref_sim.run(prog.schedule); });
        r.optimized_allocs_per_step =
            double(opt_allocs) / double(r.steps);
        r.scalar_allocs_per_step =
            double(ref_allocs) / double(r.steps);
        e2e.push_back(r);
    }

    Table etable({"pipeline", "benchmark", "steps", "scalar ms",
                  "optimized ms", "speedup", "max |diff|",
                  "allocs/step"});
    etable.setTitle("end-to-end (best of " +
                    std::to_string(e2e_reps) + ")");
    for (const E2eResult &r : e2e)
        etable.addRow({r.name, r.benchmark, std::to_string(r.steps),
                       formatF(r.scalar_ms, 2),
                       formatF(r.optimized_ms, 2),
                       formatX(r.speedup()), bench::sci(r.agreement),
                       formatF(r.optimized_allocs_per_step, 2)});
    etable.print(std::cout);
    std::cout << "\n";

    // ------------------------------------------------------------
    // Acceptance: numerical agreement is a hard precondition (a
    // fast-but-wrong engine must never publish a speedup), then the
    // end-to-end ratio bar, then the zero-heap promise.
    // ------------------------------------------------------------
    bool ok = true;
    for (const E2eResult &r : e2e) {
        if (!(r.agreement < 1e-9)) {
            std::cerr << "FAIL: " << r.name
                      << " optimized/scalar disagree (max diff "
                      << bench::sci(r.agreement) << ")\n";
            ok = false;
        }
        if (r.speedup() < required_speedup) {
            std::cerr << "FAIL: " << r.name << " speedup "
                      << formatX(r.speedup()) << " below the "
                      << formatX(required_speedup) << " bar\n";
            ok = false;
        }
        // Per-layer setup (phase vector, job list) is allowed; a
        // budget of one allocation per step means the inner step
        // loop itself is allocation-free.
        if (r.optimized_allocs_per_step > 1.0) {
            std::cerr << "FAIL: " << r.name << " optimized path makes "
                      << formatF(r.optimized_allocs_per_step, 2)
                      << " allocations per step (budget: 1)\n";
            ok = false;
        }
    }

    double min_e2e = 0.0;
    for (size_t i = 0; i < e2e.size(); ++i)
        min_e2e = i == 0 ? e2e[i].speedup()
                         : std::min(min_e2e, e2e[i].speedup());

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot open " << out_path << "\n";
        return 1;
    }
    out.precision(12);
    out << "{\n  \"quick\": " << (quick ? "true" : "false")
        << ",\n  \"required_speedup\": " << required_speedup
        << ",\n  \"min_e2e_speedup\": " << min_e2e
        << ",\n  \"kernels\": [\n";
    for (size_t i = 0; i < kernels.size(); ++i) {
        const KernelResult &k = kernels[i];
        out << "    {\"kernel\": \"" << k.kernel
            << "\", \"qubits\": " << k.qubits
            << ", \"scalar_ns\": " << k.scalar_ns
            << ", \"optimized_ns\": " << k.optimized_ns
            << ", \"speedup\": " << k.speedup() << "}"
            << (i + 1 < kernels.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"e2e\": [\n";
    for (size_t i = 0; i < e2e.size(); ++i) {
        const E2eResult &r = e2e[i];
        out << "    {\"name\": \"" << r.name << "\", \"benchmark\": \""
            << r.benchmark << "\", \"qubits\": " << r.qubits
            << ", \"steps\": " << r.steps
            << ", \"scalar_ms\": " << r.scalar_ms
            << ", \"optimized_ms\": " << r.optimized_ms
            << ", \"speedup\": " << r.speedup()
            << ", \"max_diff\": " << r.agreement
            << ", \"optimized_allocs_per_step\": "
            << r.optimized_allocs_per_step
            << ", \"scalar_allocs_per_step\": "
            << r.scalar_allocs_per_step << "}"
            << (i + 1 < e2e.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"passed\": " << (ok ? "true" : "false")
        << "\n}\n";
    out.close();
    std::cout << "wrote " << out_path << "\n";

    if (!ok)
        return 1;
    std::cout << "PASS: min end-to-end speedup "
              << formatX(min_e2e) << " (bar "
              << formatX(required_speedup) << ")\n";
    return 0;
}
