/**
 * @file
 * The fidelity workload: the paper's Sec. 7.3 pipeline in-process.
 *
 * A fixed set of circuits (state-vector circuits of 8-10 qubits and
 * two 6-qubit density-matrix circuits at T1 = T2 = 100 us, the Fig. 23
 * setting) is compiled, simulated at the pulse level and compared
 * with the ideal schedule output, under the Gaussian + ParSched
 * baseline and the paper's Pert + ZZXSched.  The families and sizes
 * are fixed; the seed draws the random circuit instances and the
 * device calibrations.  One "request" is one circuit x configuration
 * evaluation (compile + simulate + ideal reference); kWorkers of them
 * run at once.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstring>
#include <mutex>
#include <spawn.h>
#include <thread>
#include <sys/wait.h>
#include <unistd.h>

#include <iostream>

#include "perfbench.h"
#include "qzz.h"

namespace perfbench {

namespace {

using namespace qzz;

struct CircuitSpec
{
    std::string family;
    int qubits;
    bool density;
};

/** The fixed composition: simulation-dominated, a few ms of compile
 *  against hundreds of ms of simulation per evaluation.  Families
 *  whose cost does not depend on the circuit seed (the hidden shift
 *  only flips X gates), so the work is alike for every seed. */
const std::vector<CircuitSpec> kCircuits = {
    {"HS", 10, false},
    {"QFT", 8, false},
    {"Ising", 8, false},
    {"HS", 6, true},
    {"Ising", 6, true},
};

const std::vector<core::CompileOptions> kConfigs = {
    {core::PulseMethod::Gaussian, core::SchedPolicy::Par, {}},
    {core::PulseMethod::Pert, core::SchedPolicy::Zzx, {}},
};

/** One circuit x configuration pair, ready to evaluate. */
struct Eval
{
    std::string label;
    ckt::QuantumCircuit circuit;
    bool density = false;
    std::shared_ptr<const core::Compiler> compiler;
};

struct Built
{
    std::vector<Eval> evals;
    std::vector<double> gen_ms;
};

Built
build(uint64_t seed)
{
    Built b;
    SplitMix rng(seed * 0x2545f4914f6cdd1dULL + 17);
    core::getPulseLibraryShared(core::PulseMethod::Gaussian);
    core::getPulseLibraryShared(core::PulseMethod::Pert);
    for (const auto &spec : kCircuits) {
        const uint64_t circuit_seed = 1 + rng.below(uint64_t(1) << 31);
        Rng device_rng(1 + rng.below(uint64_t(1) << 31));
        const auto t0 = Clock::now();
        auto circuit =
            ckt::namedBenchmark(spec.family, spec.qubits, circuit_seed);
        b.gen_ms.push_back(msBetween(t0, Clock::now()));
        dev::Device device = dev::Device::gridForQubits(
            spec.qubits, dev::DeviceParams{}, device_rng);
        if (spec.density)
            device = device.withCoherence(us(100.0), us(100.0));
        for (const auto &config : kConfigs) {
            Eval e;
            e.label = circuit->name() + "/" + exp::configName(config) +
                      (spec.density ? "/dm" : "/sv");
            e.circuit = *circuit;
            e.density = spec.density;
            e.compiler = std::make_shared<const core::Compiler>(
                core::CompilerBuilder(device).options(config).build());
            b.evals.push_back(std::move(e));
        }
    }
    return b;
}

/** The first run of one evaluation, kept for the checks. */
struct FirstRun
{
    core::CompiledProgram program;
    core::CompileDiagnostics diagnostics;
};

/** Max amplitude distance between the compiled schedule's ideal
 *  output and the input circuit's ideal output carried through
 *  final_layout, after aligning the global phase. */
double
idealMismatch(const ckt::QuantumCircuit &logical,
              const core::CompiledProgram &program)
{
    const sim::StateVector ref = sim::runIdealCircuit(logical);
    const sim::StateVector out = sim::runIdealSchedule(program.schedule);
    const int n = ref.numQubits();
    const int big = out.numQubits();
    std::vector<int> layout = program.final_layout;
    if (layout.empty())
        for (int l = 0; l < n; ++l)
            layout.push_back(l);
    // Qubit 0 is the most significant bit of a basis index.
    la::CVector mapped(out.dim(), la::cplx(0.0, 0.0));
    for (size_t y = 0; y < ref.dim(); ++y) {
        size_t x = 0;
        for (int l = 0; l < n; ++l)
            if ((y >> (n - 1 - l)) & 1)
                x |= size_t(1) << (big - 1 - layout[size_t(l)]);
        mapped[x] = ref.amplitudes()[y];
    }
    la::cplx overlap(0.0, 0.0);
    for (size_t x = 0; x < out.dim(); ++x)
        overlap += std::conj(mapped[x]) * out.amplitudes()[x];
    if (std::abs(overlap) < 1e-12)
        return 1.0;
    const la::cplx phase = overlap / std::abs(overlap);
    double worst = 0.0;
    for (size_t x = 0; x < out.dim(); ++x)
        worst = std::max(worst,
                         std::abs(out.amplitudes()[x] - phase * mapped[x]));
    return worst;
}

/** Sim registry totals (global registry, qzz_sim_* families). */
struct SimCounters
{
    double sv_steps = 0, dm_steps = 0;
    double phase_ns = 0, gate_ns = 0, decoh_ns = 0, dm_decoh_count = 0;

    static SimCounters
    read()
    {
        const std::string expo =
            tel::MetricsRegistry::global().renderPrometheus();
        SimCounters c;
        c.sv_steps =
            promValue(expo, "qzz_sim_steps_total", {{"sim", "statevector"}});
        c.dm_steps =
            promValue(expo, "qzz_sim_steps_total", {{"sim", "density"}});
        c.phase_ns =
            promValue(expo, "qzz_sim_kernel_ns_sum", {{"kernel", "phase"}});
        c.gate_ns =
            promValue(expo, "qzz_sim_kernel_ns_sum", {{"kernel", "gate"}});
        c.decoh_ns = promValue(expo, "qzz_sim_kernel_ns_sum",
                               {{"kernel", "decoherence"}});
        c.dm_decoh_count =
            promValue(expo, "qzz_sim_kernel_ns_count",
                      {{"sim", "density"}, {"kernel", "decoherence"}});
        return c;
    }
};

/**
 * One setup as a user pays it: start a fresh `perfbench setup-probe`
 * process and wait until it has loaded the pulse libraries and built
 * the devices and compilers.  Returns the seconds from spawn to its
 * "ready" line.
 */
double
timedProbe(const RunOptions &opt)
{
    const char *self = "/proc/self/exe";
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    const std::string seed = std::to_string(opt.seed);
    std::vector<std::string> args = {self, "setup-probe", "--seed", seed};
    std::vector<char *> argv;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const auto t0 = Clock::now();
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, self, &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        throw std::runtime_error("cannot start the setup probe");
    }
    char c = 0;
    const bool ready = read(fds[0], &c, 1) == 1 && c == 'r';
    const double seconds = secondsBetween(t0, Clock::now());
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!ready || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("the setup probe failed");
    return seconds;
}

} // namespace

int
setupProbe(uint64_t seed)
{
    build(seed);
    std::cout << "ready" << std::endl;
    return 0;
}

RunResult
runFidelity(const RunOptions &opt)
{
    RunResult res;
    // A setup here takes milliseconds, so a few slow process starts
    // would move a median of kSetups; take the median of more.
    constexpr int kProbes = 3 * kSetups;
    std::vector<double> setups;
    {
        SetupWatchdog watchdog(60.0);
        for (int rep = 0; rep < kProbes; ++rep)
            setups.push_back(timedProbe(opt));
    }
    const double setup_ms = opt.trace ? compilerSetupMs() : 0.0;
    const Built built = build(opt.seed);

    sim::PulseSimOptions sv_opt;
    sim::PulseSimOptions dm_opt;
    dm_opt.dt = 0.1; // the Fig. 23 density-matrix step

    // kWorkers evaluations run at once, as a sweep over a figure's
    // circuits would use the machine; each thread takes the next
    // evaluation in round-robin order.  Every evaluation runs at
    // least twice (the bit-identity check compares its runs).
    const size_t n_evals = built.evals.size();
    std::vector<FirstRun> first(n_evals);
    std::vector<std::vector<double>> fidelity(n_evals);
    std::vector<std::vector<double>> eval_ms(n_evals);
    std::vector<double> latency, compile_ms, ideal_ms;
    std::map<std::string, std::vector<double>> pass_ms;
    double sv_sim_ns = 0, dm_sim_ns = 0;
    uint64_t sim_allocs = 0;
    std::mutex mu;
    std::atomic<size_t> next{0};

    const SimCounters before = SimCounters::read();
    const double steal0 = stolenSeconds();
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(opt.seconds));
    auto worker = [&] {
        for (;;) {
            const size_t seq = next.fetch_add(1);
            if (seq >= 2 * n_evals && Clock::now() >= deadline)
                return;
            const size_t i = seq % n_evals;
            const Eval &e = built.evals[i];
            const auto ta = Clock::now();
            core::CompileResult compiled = e.compiler->compile(e.circuit);
            const auto tb = Clock::now();
            if (!compiled.ok()) {
                std::lock_guard<std::mutex> lock(mu);
                ++res.attempted;
                ++res.failed;
                res.errors.push_back(e.label + ": compile failed: " +
                                     compiled.status.message);
                return;
            }
            const core::CompiledProgram &prog = compiled.program;
            double fid = 0.0;
            const uint64_t allocs0 = allocationCount();
            Clock::time_point tc;
            if (e.density) {
                sim::DensityMatrixScheduleSimulator simulator(
                    e.compiler->device(), *prog.library, dm_opt);
                const sim::DensityMatrix actual =
                    simulator.run(prog.schedule);
                tc = Clock::now();
                fid = actual.expectationPure(
                    sim::runIdealSchedule(prog.schedule));
            } else {
                sim::PulseScheduleSimulator simulator(
                    e.compiler->device(), *prog.library, sv_opt);
                const sim::StateVector actual = simulator.run(prog.schedule);
                tc = Clock::now();
                fid = sim::runIdealSchedule(prog.schedule).fidelity(actual);
            }
            const uint64_t allocs = allocationCount() - allocs0;
            const auto td = Clock::now();

            std::lock_guard<std::mutex> lock(mu);
            ++res.attempted;
            sim_allocs += allocs;
            (e.density ? dm_sim_ns : sv_sim_ns) += msBetween(tb, tc) * 1e6;
            latency.push_back(msBetween(ta, td));
            eval_ms[i].push_back(msBetween(ta, td));
            compile_ms.push_back(msBetween(ta, tb));
            ideal_ms.push_back(msBetween(tc, td));
            for (const auto &st : compiled.diagnostics.stages)
                pass_ms[st.stage].push_back(st.wall_ms);
            fidelity[i].push_back(fid);
            if (seq < n_evals) {
                first[i].program = std::move(compiled.program);
                first[i].diagnostics = std::move(compiled.diagnostics);
            }
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t)
        threads.emplace_back(worker);
    for (auto &t : threads)
        t.join();
    const SimCounters after = SimCounters::read();
    const double timed_s = secondsBetween(t0, Clock::now());
    res.detail["host.steal_share"] =
        (stolenSeconds() - steal0) /
        (timed_s * std::thread::hardware_concurrency());
    const size_t evals_done = latency.size();

    // Output checks: an independent ideal reference through
    // final_layout, fidelities in (0, 1] and bit-identical run to run.
    double residual_sum = 0.0, schedule_sum = 0.0, log_fid = 0.0;
    double swaps = 0.0, layers = 0.0;
    uint64_t digest = 1469598103934665603ULL;
    for (size_t i = 0; i < n_evals && res.failed == 0; ++i) {
        const Eval &e = built.evals[i];
        const double mismatch = idealMismatch(e.circuit, first[i].program);
        if (!(mismatch <= 1e-9)) {
            ++res.failed;
            res.errors.push_back(e.label +
                                 ": schedule does not implement the "
                                 "circuit (mismatch " +
                                 fmt(mismatch) + ")");
        }
        const double f0 = fidelity[i].front();
        for (double f : fidelity[i]) {
            if (std::memcmp(&f, &f0, sizeof f) != 0) {
                ++res.failed;
                res.errors.push_back(e.label +
                                     ": fidelity differs between runs");
                break;
            }
        }
        if (!(f0 > 0.0 && f0 <= 1.0 + 1e-9)) {
            ++res.failed;
            res.errors.push_back(e.label + ": fidelity " + fmt(f0) +
                                 " out of range");
        }
        uint64_t bits = 0;
        std::memcpy(&bits, &f0, sizeof bits);
        digest = (digest ^ bits) * 1099511628211ULL;
        res.detail["fidelity." + e.label] = f0;
        log_fid += std::log(std::max(f0, 1e-300));
        residual_sum += first[i].diagnostics.mean_residual_zz;
        schedule_sum += first[i].program.schedule.executionTime();
        swaps += first[i].diagnostics.swaps_inserted;
        layers += first[i].diagnostics.physical_layers;
    }
    const double dm_decoh = after.dm_decoh_count - before.dm_decoh_count;
    if (dm_decoh <= 0.0)
        res.errors.push_back("fidelity: the density-matrix arm ran no "
                             "decoherence sweeps");

    // Each evaluation's median over its runs: a burst of load from a
    // neighbour on a shared host moves one run, not the result.  The
    // throughput is that of kWorkers threads each running a pass made
    // of these medians.
    const double nd = double(n_evals);
    std::vector<double> typical;
    double typical_pass_ms = 0.0;
    for (const auto &ms : eval_ms) {
        typical.push_back(median(ms));
        typical_pass_ms += typical.back();
    }
    std::sort(typical.begin(), typical.end());
    const Summary lat = summarize(latency);
    res.metrics["req_per_s"] = {
        typical_pass_ms > 0 ? kWorkers * nd / (typical_pass_ms / 1e3) : 0.0,
        "req/s"};
    res.metrics["latency_p50_ms"] = {quantileLinear(typical, 0.5), "ms"};
    res.metrics["latency_p90_ms"] = {quantileLinear(typical, 0.9), "ms"};
    res.detail["req_per_s.whole_run"] = double(evals_done) / timed_s;
    res.detail["latency.p50_ms.whole_run"] = lat.p50;
    res.detail["latency.p90_ms.whole_run"] = lat.p90;
    res.metrics["setup_s"] = {median(setups), "s"};
    res.metrics["peak_rss_mb"] = {selfPeakRssMb(), "MiB"};
    res.metrics["schedule_ns"] = {schedule_sum / nd, "ns"};
    res.detail["latency.n"] = double(lat.n);
    res.detail["latency.max_ms"] = lat.max;
    res.detail["evals"] = double(evals_done);
    res.detail["fidelity_gmean"] = std::exp(log_fid / nd);
    res.detail["residual_zz"] = residual_sum / nd;
    res.detail["fidelity_digest"] = double(digest >> 11);
    res.detail["error_rate"] =
        res.attempted ? double(res.failed) / double(res.attempted) : 1.0;
    res.detail["setup.n"] = double(setups.size());
    res.detail["setup.max_s"] =
        *std::max_element(setups.begin(), setups.end());

    if (opt.trace) {
        MetricMap m;
        auto med = [&](const std::string &stage) {
            return median(pass_ms[stage]);
        };
        const double sv_steps = after.sv_steps - before.sv_steps;
        const double dm_steps = after.dm_steps - before.dm_steps;
        const double steps = sv_steps + dm_steps;
        const double sim_ns = sv_sim_ns + dm_sim_ns;
        m["circuit.gen_us"] = {median(built.gen_ms) * 1e3, "us"};
        m["compile.route_ms"] = {med("route"), "ms"};
        m["compile.lower_ms"] = {med("lower"), "ms"};
        m["compile.schedule_ms"] = {med("schedule"), "ms"};
        m["compile.pulses_ms"] = {med("pulses"), "ms"};
        m["compile.swaps"] = {swaps / nd, "count"};
        m["compile.layers"] = {layers / nd, "count"};
        m["compile.setup_ms"] = {setup_ms, "ms"};
        m["sim.sv.ns_per_step"] = {sv_steps > 0 ? sv_sim_ns / sv_steps : 0.0,
                                   "ns"};
        m["sim.dm.ns_per_step"] = {dm_steps > 0 ? dm_sim_ns / dm_steps : 0.0,
                                   "ns"};
        m["sim.steps"] = {steps / double(std::max<size_t>(evals_done, 1)),
                          "count"};
        m["sim.allocs_per_step"] = {
            steps > 0 ? double(sim_allocs) / steps : 0.0, "count"};
        m["sim.ideal_ms"] = {median(ideal_ms), "ms"};
        m["sim.kernel_share.phase"] = {
            sim_ns > 0 ? (after.phase_ns - before.phase_ns) / sim_ns : 0.0,
            "share"};
        m["sim.kernel_share.gate"] = {
            sim_ns > 0 ? (after.gate_ns - before.gate_ns) / sim_ns : 0.0,
            "share"};
        m["sim.kernel_share.decoherence"] = {
            sim_ns > 0 ? (after.decoh_ns - before.decoh_ns) / sim_ns : 0.0,
            "share"};
        m["quality.fidelity_gmean"] = {res.detail["fidelity_gmean"], "1"};
        m["quality.residual_zz"] = {res.detail["residual_zz"], "rad/ns"};
        res.detail["compile.ms.p50"] = median(compile_ms);
        res.metrics = std::move(m);
    }
    return res;
}

} // namespace perfbench
