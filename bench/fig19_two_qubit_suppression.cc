/**
 * @file
 * Fig. 19: ZZ suppression during the two-qubit Rzx(pi/2) gate on the
 * 1-2-3-4 chain: (a) equal spectator couplings swept together for
 * Gaussian / OptCtrl / Pert pulses; (b) the Pert pulse on the
 * (lambda_12, lambda_34) grid.
 */

#include "bench_common.h"

using namespace qzz;

int
main()
{
    bench::banner("Figure 19",
                  "two-qubit Rzx(pi/2) crosstalk suppression");
    const double intra = khz(200.0);

    const pulse::PulseProgram gauss =
        pulse::PulseLibrary::gaussian().get(pulse::PulseGate::RZX);
    const pulse::PulseProgram octl =
        core::getPulseLibraryShared(core::PulseMethod::OptCtrl)
            ->get(pulse::PulseGate::RZX);
    const pulse::PulseProgram pert =
        core::getPulseLibraryShared(core::PulseMethod::Pert)
            ->get(pulse::PulseGate::RZX);

    {
        Table table({"lambda/2pi (MHz)", "Gaussian", "OptCtrl",
                     "Pert"});
        table.setTitle("(a) equal strengths on 1-2 and 3-4");
        for (double l_mhz : bench::lambdaSweepMhz()) {
            auto cell = [&](const pulse::PulseProgram &p) {
                return bench::sci(bench::clampInfidelity(
                    core::twoQubitCrosstalkInfidelity(
                        p, mhz(l_mhz), mhz(l_mhz), intra, 0.02)));
            };
            table.addRow({formatF(l_mhz, 2), cell(gauss), cell(octl),
                          cell(pert)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    {
        Table table({"l12 \\ l34 (MHz)", "0.0", "0.5", "1.0", "1.5",
                     "2.0"});
        table.setTitle("(b) Pert pulse, different strengths");
        for (double l12 : {0.0, 0.5, 1.0, 1.5, 2.0}) {
            std::vector<std::string> row{formatF(l12, 1)};
            for (double l34 : {0.0, 0.5, 1.0, 1.5, 2.0}) {
                row.push_back(bench::sci(bench::clampInfidelity(
                    core::twoQubitCrosstalkInfidelity(
                        pert, mhz(l12), mhz(l34), intra, 0.02))));
            }
            table.addRow(row);
        }
        table.print(std::cout);
    }
    std::cout << "\nExpected shape: optimized pulses suppress"
                 " cross-region ZZ during the gate;\nthe heat map"
                 " stays flat and low across the strength grid.\n";
    return 0;
}
