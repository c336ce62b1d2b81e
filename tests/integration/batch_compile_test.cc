/**
 * @file
 * Integration test for Compiler::compileBatch(): a 12-qubit workload
 * compiled across a thread pool must produce bit-identical schedules
 * to sequential compilation, and finish measurably faster.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <thread>

#include "circuit/benchmarks.h"
#include "core/compiler.h"
#include "core/schedule_io.h"
#include "graph/topologies.h"

namespace qzz::core {
namespace {

std::string
fingerprint(const CompiledProgram &prog)
{
    std::ostringstream os;
    ScheduleIoOptions opt;
    opt.sample_dt = 0.0;
    opt.pretty = false;
    writeScheduleJson(prog.schedule, *prog.library, os, opt);
    return os.str();
}

std::vector<ckt::QuantumCircuit>
workload12(int count)
{
    std::vector<ckt::QuantumCircuit> out;
    for (uint64_t seed = 1; seed <= uint64_t(count); ++seed) {
        Rng rng(seed);
        out.push_back(ckt::googleRandom(12, 6, rng));
    }
    return out;
}

/** ZZXSched on a 3x4 grid: the compiler both batch tests share. */
Compiler
compilerGrid12()
{
    Rng rng(2);
    dev::Device device(graph::gridTopology(3, 4), dev::DeviceParams{},
                       rng);
    return CompilerBuilder(device)
        .pulseMethod(PulseMethod::Gaussian)
        .schedPolicy(SchedPolicy::Zzx)
        .build();
}

TEST(BatchCompileTest, MatchesSequentialBitForBit)
{
    const auto circuits = workload12(8);
    const Compiler compiler = compilerGrid12();
    std::vector<CompileResult> sequential;
    for (const ckt::QuantumCircuit &c : circuits)
        sequential.push_back(compiler.compile(c));

    BatchOptions opt;
    opt.num_threads = 4;
    const BatchResult batch = compiler.compileBatch(circuits, opt);
    ASSERT_TRUE(batch.allOk());
    ASSERT_EQ(batch.results.size(), circuits.size());
    EXPECT_EQ(batch.threads_used, 4);
    for (size_t i = 0; i < circuits.size(); ++i) {
        ASSERT_TRUE(sequential[i].ok());
        EXPECT_EQ(fingerprint(batch.results[i].program),
                  fingerprint(sequential[i].program))
            << "circuit " << i << " diverged under batch compilation";
    }
    // The workers share one pulse library instance.
    for (const CompileResult &r : batch.results)
        EXPECT_EQ(r.program.library.get(),
                  batch.results.front().program.library.get());
}

// Registered RUN_SERIAL (tests/CMakeLists.txt): under `ctest -j` the
// other test processes hold the cores the 4 workers need.
TEST(BatchCompileTest, RunsFasterThanSequential)
{
    const auto circuits = workload12(8);
    const Compiler compiler = compilerGrid12();

    // Warm the code paths outside the timed region so both
    // measurements start from the same state.
    ASSERT_TRUE(compiler.compile(circuits.front()).ok());

    using Clock = std::chrono::steady_clock;
    const auto seq_start = Clock::now();
    std::vector<CompileResult> sequential;
    for (const ckt::QuantumCircuit &c : circuits)
        sequential.push_back(compiler.compile(c));
    const double seq_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  seq_start)
            .count();

    BatchOptions opt;
    opt.num_threads = 4;
    // Two runs, best wall time kept: damps scheduling noise.
    BatchResult batch = compiler.compileBatch(circuits, opt);
    {
        BatchResult second = compiler.compileBatch(circuits, opt);
        if (second.wall_ms < batch.wall_ms)
            batch = std::move(second);
    }
    ASSERT_TRUE(batch.allOk());

    // Measurably faster: 8 ZZXSched compilations of GRC-12 take tens
    // of milliseconds sequentially; with >= 2 real cores the 4
    // workers must beat that even on a loaded CI machine.  On a
    // single-core machine concurrency cannot win, so only bound the
    // fan-out overhead there.
    const unsigned hw = std::thread::hardware_concurrency();
    if (hw >= 2) {
        EXPECT_LT(batch.wall_ms, seq_ms)
            << "batch (" << batch.wall_ms << " ms) not faster than "
            << "sequential (" << seq_ms << " ms) on " << hw
            << " hardware threads";
    } else {
        EXPECT_LT(batch.wall_ms, seq_ms * 1.5)
            << "single-core batch overhead too high: "
            << batch.wall_ms << " ms vs sequential " << seq_ms
            << " ms";
    }
}

TEST(BatchCompileTest, SingleThreadBatchStillMatches)
{
    Rng rng(2);
    dev::Device device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
    std::vector<ckt::QuantumCircuit> circuits;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        Rng crng(seed);
        circuits.push_back(ckt::hiddenShift(6, crng));
    }
    const Compiler compiler = CompilerBuilder(device)
                                  .pulseMethod(PulseMethod::Gaussian)
                                  .schedPolicy(SchedPolicy::Par)
                                  .build();
    BatchOptions opt;
    opt.num_threads = 1;
    const BatchResult batch = compiler.compileBatch(circuits, opt);
    ASSERT_TRUE(batch.allOk());
    EXPECT_EQ(batch.threads_used, 1);
    for (size_t i = 0; i < circuits.size(); ++i) {
        CompileResult direct = compiler.compile(circuits[i]);
        ASSERT_TRUE(direct.ok());
        EXPECT_EQ(fingerprint(batch.results[i].program),
                  fingerprint(direct.program));
    }
}

TEST(BatchCompileTest, FailuresLandPerCircuit)
{
    Rng rng(2);
    dev::Device device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
    std::vector<ckt::QuantumCircuit> circuits;
    circuits.emplace_back(6, "fits");
    circuits.back().h(0);
    circuits.emplace_back(12, "too-big"); // exceeds the device
    circuits.back().h(0);
    const Compiler compiler = CompilerBuilder(device)
                                  .pulseMethod(PulseMethod::Gaussian)
                                  .build();
    const BatchResult batch = compiler.compileBatch(circuits);
    ASSERT_EQ(batch.results.size(), 2u);
    EXPECT_TRUE(batch.results[0].ok());
    EXPECT_FALSE(batch.results[1].ok());
    EXPECT_FALSE(batch.allOk());
    EXPECT_EQ(batch.results[1].status.code,
              CompileStatusCode::InvalidInput);
}

} // namespace
} // namespace qzz::core
