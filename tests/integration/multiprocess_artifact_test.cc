/**
 * @file
 * Multi-process artifact-tier torture tests: several CompileService
 * processes (real fork()ed children, not threads) share one artifact
 * directory, write overlapping workloads, and run GC concurrently.
 * The invariants under test are exactly the ones the distributed
 * serving story depends on:
 *
 *   - no process ever crashes or corrupts the tier (every surviving
 *     file is a valid fingerprint name);
 *   - the byte-capacity bound holds after a final GC pass;
 *   - artifacts written by one process serve disk hits in another.
 *
 * fork() happens strictly before the parent creates any service (and
 * therefore any thread): forking a multithreaded process would leave
 * child-side mutexes in undefined states.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "circuit/benchmarks.h"
#include "graph/topologies.h"
#include "service/artifact_gc.h"
#include "service/compile_service.h"

namespace qzz::svc {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<const dev::Device>
sharedDevice()
{
    // Same topology + seed in every process => same calibration =>
    // same fingerprints across the fleet.
    Rng rng(11);
    return std::make_shared<const dev::Device>(graph::gridTopology(2, 3),
                                               dev::DeviceParams{}, rng);
}

core::CompileOptions
options()
{
    core::CompileOptions opt;
    opt.pulse = core::PulseMethod::Gaussian;
    opt.sched = core::SchedPolicy::Zzx;
    return opt;
}

/** The workload for one child: QFT/HS instances whose seeds overlap
 *  with every other child's, so processes race on the same
 *  fingerprints as well as writing distinct ones. */
std::vector<ckt::QuantumCircuit>
workload(int child)
{
    std::vector<ckt::QuantumCircuit> circuits;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        circuits.push_back(*ckt::namedBenchmark("QFT", 4, seed));
        circuits.push_back(*ckt::namedBenchmark("HS", 4, seed));
    }
    // One circuit unique to this child, so the tier also sees
    // non-overlapping writes.
    circuits.push_back(
        *ckt::namedBenchmark("QFT", 5, uint64_t(100 + child)));
    return circuits;
}

/** Child body: compile the workload against the shared tier with a
 *  tight GC, twice (the second round mixes hits with evictions).
 *  Returns the child's exit code. */
int
childMain(const std::string &dir, int child, uint64_t capacity_bytes)
{
    ArtifactGcConfig gc_config;
    gc_config.capacity_bytes = capacity_bytes;
    auto gc = std::make_shared<ArtifactGc>(dir, gc_config);

    CompileServiceConfig config;
    config.num_workers = 2;
    config.cache.capacity = 4; // force artifact-tier traffic
    config.cache.artifact_dir = dir;
    config.cache.gc = gc;
    CompileService service(config);

    auto device = sharedDevice();
    for (int round = 0; round < 2; ++round) {
        std::vector<RequestHandle> handles;
        for (const auto &circuit : workload(child))
            handles.push_back(
                service.submit({circuit, device, options(), {}}));
        for (auto &handle : handles) {
            const ServiceResult result = handle.get();
            if (!result.ok())
                return 1;
        }
        // An explicit pass in each child, concurrent with the other
        // children's write-path maybeCollect() calls.
        gc->run();
    }
    service.shutdown(true);
    return 0;
}

/** Fork @p children child processes running childMain; true iff all
 *  exited 0. */
bool
runChildren(const std::string &dir, int children, uint64_t capacity_bytes)
{
    std::vector<pid_t> pids;
    for (int i = 0; i < children; ++i) {
        const pid_t pid = fork();
        if (pid == 0) {
            // _exit, not exit: no parent-side gtest teardown in the
            // child, no double-flushed stdio buffers.
            _exit(childMain(dir, i, capacity_bytes));
        }
        if (pid < 0)
            return false;
        pids.push_back(pid);
    }
    bool ok = true;
    for (const pid_t pid : pids) {
        int status = 0;
        if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
            WEXITSTATUS(status) != 0)
            ok = false;
    }
    return ok;
}

class MultiprocessArtifactTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("qzz_multiproc_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(MultiprocessArtifactTest, ConcurrentWritersKeepTheTierConsistent)
{
    // Tight capacity: evictions happen *while* other processes write.
    constexpr uint64_t kCapacity = 96 * 1024;
    ASSERT_TRUE(runChildren(dir_, 3, kCapacity));

    // Every surviving artifact is named by a valid fingerprint.
    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir_)) {
        if (entry.path().extension() != ".qzzprog")
            continue;
        ++files;
        EXPECT_TRUE(
            Fingerprint::fromHex(entry.path().stem().string()).has_value())
            << entry.path();
    }
    EXPECT_GT(files, 0u);

    // A final pass settles the bound regardless of which child's GC
    // won the last race.
    ArtifactGcConfig gc_config;
    gc_config.capacity_bytes = kCapacity;
    ArtifactGc gc(dir_, gc_config);
    const ArtifactGcStats stats = gc.run();
    EXPECT_LE(stats.bytes_after, kCapacity);
}

TEST_F(MultiprocessArtifactTest, ArtifactsFromOneProcessServeAnother)
{
    // Generous capacity: nothing evicted, so every child artifact
    // must be rescuable.
    ASSERT_TRUE(runChildren(dir_, 1, /*capacity_bytes=*/0));

    // A fresh service (empty in-memory cache) over the same tier:
    // the child's artifact answers from disk.
    CompileServiceConfig config;
    config.num_workers = 1;
    config.cache.artifact_dir = dir_;
    CompileService service(config);

    auto device = sharedDevice();
    const ServiceResult result =
        service
            .submit({*ckt::namedBenchmark("QFT", 4, 1), device,
                     options(), {}})
            .get();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.outcome, Outcome::CacheHit);
    EXPECT_GE(service.cache().stats().disk_hits, 1u);
    service.shutdown(true);
}

} // namespace
} // namespace qzz::svc
