/**
 * @file
 * Fig. 16: ZZ-crosstalk suppression performance of Rx(pi/2) and I
 * pulses — infidelity versus crosstalk strength for Gaussian,
 * OptCtrl, DCG and Pert pulses on the two-qubit basic region.
 */

#include "bench_common.h"

using namespace qzz;

namespace {

void
runGate(pulse::PulseGate gate, const la::CMatrix &target)
{
    struct Entry
    {
        std::string name;
        pulse::PulseProgram program;
    };
    std::vector<Entry> entries;
    entries.push_back(
        {"Gaussian",
         pulse::PulseLibrary::gaussian().get(gate)});
    entries.push_back(
        {"OptCtrl",
         core::getPulseLibraryShared(core::PulseMethod::OptCtrl)
             ->get(gate)});
    entries.push_back(
        {"DCG",
         core::getPulseLibraryShared(core::PulseMethod::DCG)->get(gate)});
    entries.push_back(
        {"Pert",
         core::getPulseLibraryShared(core::PulseMethod::Pert)
             ->get(gate)});

    Table table({"lambda/2pi (MHz)", "Gaussian", "OptCtrl",
                 "DCG", "Pert"});
    table.setTitle("Infidelity of " + pulse::pulseGateName(gate) +
                   " vs crosstalk strength (lower is better)");
    for (double l_mhz : bench::lambdaSweepMhz()) {
        std::vector<std::string> row{formatF(l_mhz, 2)};
        for (const Entry &e : entries) {
            const double infid = core::oneQubitCrosstalkInfidelity(
                e.program, target, mhz(l_mhz), {}, 0.01);
            row.push_back(bench::sci(bench::clampInfidelity(infid)));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    bench::banner("Figure 16",
                  "single-qubit ZZ suppression (Rx(pi/2) and I)");
    runGate(pulse::PulseGate::SX, la::expPauli(kPi / 4.0, 0.0, 0.0));
    runGate(pulse::PulseGate::Identity, la::identity2());
    std::cout << "Expected shape: optimized pulses sit orders of"
                 " magnitude below Gaussian;\nPert floors lowest"
                 " (first-order term cancelled => lambda^4 scaling),\n"
                 "DCG pays for its longer duration.\n";
    return 0;
}
