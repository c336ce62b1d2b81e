/**
 * @file
 * Fig. 27: Ramsey experiments on the three-qubit chain Q1-Q2-Q3.
 * Groups (a) Q2-Q1, (b) Q2-Q3, (c) both couplings together; original
 * circuit A (Gaussian, idle wait) versus compiled circuits B and C
 * (ZZ-suppressing identity pulses; DCG as on the paper's device, plus
 * the Pert identity as an extension).
 */

#include "bench_common.h"

using namespace qzz;

namespace {

sim::RamseyConfig
baseConfig(const pulse::PulseLibrary &lib)
{
    sim::RamseyConfig cfg;
    cfg.lambda12 = khz(50.0);
    cfg.lambda23 = khz(50.0);
    cfg.library = &lib;
    cfg.segments = 500;
    cfg.dt = 0.02;
    return cfg;
}

void
row(Table &table, const std::string &group, const std::string &label,
    const pulse::PulseLibrary &lib, sim::RamseyCircuit circuit,
    bool probe_q1, bool probe_q3)
{
    sim::RamseyConfig cfg = baseConfig(lib);
    cfg.circuit = circuit;
    sim::ZzMeasurement zz =
        sim::measureEffectiveZz(cfg, probe_q1, probe_q3);
    table.addRow({group, label, lib.name(),
                  formatF(zz.f_ground * 1e3, 4),
                  formatF(zz.f_excited * 1e3, 4),
                  formatF(zz.zz_khz, 2)});
}

} // namespace

int
main()
{
    bench::banner("Figure 27", "Ramsey experiments (effective ZZ)");
    // Shared ownership keeps the libraries alive independent of the
    // process-wide cache.
    const pulse::PulseLibrary &gau = pulse::PulseLibrary::gaussian();
    const auto dcg_lib =
        core::getPulseLibraryShared(core::PulseMethod::DCG);
    const auto pert_lib =
        core::getPulseLibraryShared(core::PulseMethod::Pert);
    const pulse::PulseLibrary &dcg = *dcg_lib;
    const pulse::PulseLibrary &pert = *pert_lib;

    Table table({"group", "circuit", "pulses", "f0 (MHz)", "f1 (MHz)",
                 "ZZ (kHz)"});
    // (a) Q2-Q1.
    row(table, "(a) Q2-Q1", "A", gau, sim::RamseyCircuit::A, true,
        false);
    row(table, "(a) Q2-Q1", "B", dcg, sim::RamseyCircuit::B, true,
        false);
    // (b) Q2-Q3.
    row(table, "(b) Q2-Q3", "A", gau, sim::RamseyCircuit::A, false,
        true);
    row(table, "(b) Q2-Q3", "B", dcg, sim::RamseyCircuit::B, false,
        true);
    // (c) both neighbors.
    row(table, "(c) both", "A", gau, sim::RamseyCircuit::A, true, true);
    row(table, "(c) both", "B", dcg, sim::RamseyCircuit::B, true, true);
    row(table, "(c) both", "C", dcg, sim::RamseyCircuit::C, true, true);
    // Extension: the optimized Pert identity instead of DCG.
    row(table, "(ext) both", "B", pert, sim::RamseyCircuit::B, true,
        true);
    table.print(std::cout);
    std::cout << "\nExpected shape: circuit A measures the bare"
                 " effective ZZ (~200 kHz per coupling,\n~400 kHz for"
                 " both); compiled circuits B and C collapse it to"
                 " ~10 kHz or less.\n";
    return 0;
}
