#include "exp/pipeline.h"

namespace qzz::exp {

std::string
configName(const core::CompileOptions &opt)
{
    std::string pulse = core::pulseMethodName(opt.pulse);
    if (pulse == "Gaussian")
        pulse = "Gau";
    return pulse + "+" + core::schedPolicyName(opt.sched);
}

namespace {

FidelityResult
makeResult(const ckt::QuantumCircuit &logical,
           const core::CompileOptions &opt,
           const core::CompiledProgram &prog)
{
    FidelityResult res;
    res.benchmark = logical.name();
    res.config = configName(opt);
    res.execution_time = prog.schedule.executionTime();
    res.physical_layers = prog.schedule.physicalLayerCount();
    res.mean_nc = prog.schedule.meanNc();
    res.max_nq = prog.schedule.maxNq();
    return res;
}

} // namespace

FidelityResult
evaluateFidelity(const ckt::QuantumCircuit &logical,
                 const core::Compiler &compiler,
                 const sim::PulseSimOptions &sim_opt)
{
    core::CompiledProgram prog =
        core::unwrapOrThrow(compiler.compile(logical));
    FidelityResult res =
        makeResult(logical, compiler.options(), prog);

    sim::PulseScheduleSimulator simulator(compiler.device(),
                                          *prog.library, sim_opt);
    const sim::StateVector actual = simulator.run(prog.schedule);
    const sim::StateVector ideal =
        sim::runIdealSchedule(prog.schedule);
    res.fidelity = ideal.fidelity(actual);
    return res;
}

FidelityResult
evaluateFidelityWithDecoherence(const ckt::QuantumCircuit &logical,
                                const core::Compiler &compiler,
                                const sim::PulseSimOptions &sim_opt)
{
    core::CompiledProgram prog =
        core::unwrapOrThrow(compiler.compile(logical));
    FidelityResult res =
        makeResult(logical, compiler.options(), prog);

    sim::DensityMatrixScheduleSimulator simulator(
        compiler.device(), *prog.library, sim_opt);
    const sim::DensityMatrix actual = simulator.run(prog.schedule);
    const sim::StateVector ideal =
        sim::runIdealSchedule(prog.schedule);
    res.fidelity = actual.expectationPure(ideal);
    return res;
}

} // namespace qzz::exp
