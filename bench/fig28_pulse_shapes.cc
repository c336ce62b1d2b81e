/**
 * @file
 * Fig. 28: the optimized Rx(pi/2) pulse shapes — OptCtrl and Pert
 * Fourier waveforms (20 ns) and the 120 ns DCG sequence, sampled as
 * CSV series.
 */

#include "bench_common.h"

using namespace qzz;

namespace {

void
dump(const std::string &name, const pulse::PulseProgram &p,
     double sample_step)
{
    Table table({"t (ns)", "Omega_x (MHz)", "Omega_y (MHz)"});
    table.setTitle(name + " Rx(pi/2) pulse (duration " +
                   formatF(p.duration, 0) + " ns)");
    for (double t = 0.0; t <= p.duration + 1e-9; t += sample_step) {
        const double ox = pulse::PulseProgram::eval(p.x_a, t);
        const double oy = pulse::PulseProgram::eval(p.y_a, t);
        table.addRow({formatF(t, 1), formatF(toMhz(ox), 3),
                      formatF(toMhz(oy), 3)});
    }
    table.printCsv(std::cout);
    std::cout << "\n";
}

} // namespace

int
main()
{
    bench::banner("Figure 28", "optimized Rx(pi/2) pulse shapes");
    dump("OptCtrl",
         core::getPulseLibraryShared(core::PulseMethod::OptCtrl)
             ->get(pulse::PulseGate::SX),
         1.0);
    dump("Pert",
         core::getPulseLibraryShared(core::PulseMethod::Pert)
             ->get(pulse::PulseGate::SX),
         1.0);
    dump("DCG",
         core::getPulseLibraryShared(core::PulseMethod::DCG)
             ->get(pulse::PulseGate::SX),
         2.0);
    std::cout << "Expected shape: smooth ~tens-of-MHz envelopes for"
                 " OptCtrl/Pert; the DCG\nsequence shows its"
                 " pi | pi/2 -pi/2 | pi | pi/2 segment structure.\n";
    return 0;
}
