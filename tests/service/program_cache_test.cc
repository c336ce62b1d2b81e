/**
 * @file
 * ProgramCache unit tests: LRU semantics, capacity bounds across
 * shards, counters, the on-disk artifact tier (atomic write +
 * lossless reload), and a multi-threaded stress test exercising the
 * mutex striping (runs under ASan/UBSan and the TSan CI job).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "circuit/benchmarks.h"
#include "common/json.h"
#include "core/compiler.h"
#include "graph/topologies.h"
#include "service/artifact.h"
#include "service/compile_service.h"
#include "service/fingerprint.h"
#include "service/program_cache.h"

namespace qzz::svc {
namespace {

/** A tiny synthetic program (no compile, no pulse library). */
std::shared_ptr<const core::CompiledProgram>
makeProgram(int tag)
{
    core::CompiledProgram p;
    std::string name = "p";
    name += std::to_string(tag);
    p.native = ckt::QuantumCircuit(1, std::move(name));
    p.native.sx(0);
    core::Layer layer;
    layer.duration = double(tag);
    layer.gates.push_back({ckt::Gate(ckt::GateKind::SX, {0}), false});
    p.schedule.num_qubits = 1;
    p.schedule.layers.push_back(layer);
    p.pulse_method = core::PulseMethod::Gaussian;
    p.sched_policy = core::SchedPolicy::Par;
    return std::make_shared<const core::CompiledProgram>(std::move(p));
}

Fingerprint
key(uint64_t i)
{
    return FingerprintBuilder().mix(i).finish();
}

ProgramCacheConfig
cacheConfig(size_t capacity, int shards, std::string artifact_dir = "")
{
    ProgramCacheConfig config;
    config.capacity = capacity;
    config.shards = shards;
    config.artifact_dir = std::move(artifact_dir);
    return config;
}

TEST(ProgramCacheTest, InsertLookupAndCounters)
{
    ProgramCache cache(cacheConfig(4, 1));
    EXPECT_EQ(cache.lookup(key(1)), nullptr);
    auto p = makeProgram(1);
    cache.insert(key(1), p);
    EXPECT_EQ(cache.lookup(key(1)), p);
    const ProgramCacheStats s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 1u);
    EXPECT_EQ(s.entries, 1u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
}

TEST(ProgramCacheTest, LruEvictsColdestFirst)
{
    ProgramCache cache(cacheConfig(2, 1));
    cache.insert(key(1), makeProgram(1));
    cache.insert(key(2), makeProgram(2));
    // Refresh key 1, then overflow: key 2 is now the coldest.
    EXPECT_NE(cache.lookup(key(1)), nullptr);
    cache.insert(key(3), makeProgram(3));
    EXPECT_NE(cache.lookup(key(1)), nullptr);
    EXPECT_EQ(cache.lookup(key(2)), nullptr);
    EXPECT_NE(cache.lookup(key(3)), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCacheTest, ReinsertRefreshesInsteadOfDuplicating)
{
    ProgramCache cache(cacheConfig(2, 1));
    cache.insert(key(1), makeProgram(1));
    cache.insert(key(2), makeProgram(2));
    auto replacement = makeProgram(10);
    cache.insert(key(1), replacement); // refresh, key 2 coldest now
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(key(1)), replacement);
    cache.insert(key(3), makeProgram(3));
    EXPECT_EQ(cache.lookup(key(2)), nullptr);
}

TEST(ProgramCacheTest, CapacityBoundsHoldAcrossShards)
{
    ProgramCache cache(cacheConfig(8, 4));
    for (uint64_t i = 0; i < 64; ++i)
        cache.insert(key(i), makeProgram(int(i)));
    EXPECT_LE(cache.size(), 8u);
    const ProgramCacheStats s = cache.stats();
    EXPECT_EQ(s.insertions, 64u);
    EXPECT_GE(s.evictions, 56u);
}

TEST(ProgramCacheTest, ShardCountClampedToCapacity)
{
    ProgramCache tiny(cacheConfig(2, 64));
    EXPECT_LE(tiny.config().shards, 2);
    ProgramCache rounded(cacheConfig(100, 5));
    EXPECT_EQ(rounded.config().shards, 8); // next power of two
}

TEST(ProgramCacheTest, ClearDropsMemoryEntries)
{
    ProgramCache cache(cacheConfig(4, 2));
    cache.insert(key(1), makeProgram(1));
    cache.insert(key(2), makeProgram(2));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.lookup(key(1)), nullptr);
}

class ProgramCacheDiskTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("qzz_cache_" +
                std::to_string(
                    ::testing::UnitTest::GetInstance()->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::filesystem::path dir_;
};

TEST_F(ProgramCacheDiskTest, ArtifactTierSurvivesRestart)
{
    // A real compiled program exercises the full artifact structure
    // (layers, sides, metrics, supplemented identities).
    Rng rng(2);
    dev::Device device(graph::gridTopology(2, 3), dev::DeviceParams{},
                       rng);
    const core::Compiler compiler =
        core::CompilerBuilder(device)
            .pulseMethod(core::PulseMethod::Gaussian)
            .schedPolicy(core::SchedPolicy::Zzx)
            .build();
    core::CompileResult result = compiler.compile(ckt::qft(6));
    ASSERT_TRUE(result.ok());
    auto program = std::make_shared<const core::CompiledProgram>(
        std::move(result.program));
    const Fingerprint fp = key(42);

    {
        ProgramCache cache(cacheConfig(4, 1, dir_.string()));
        cache.insert(fp, program);
        EXPECT_EQ(cache.stats().disk_writes, 1u);
        EXPECT_TRUE(std::filesystem::exists(
            dir_ / (fp.hex() + ".qzzprog")));
    }

    // A fresh cache (fresh process, conceptually) reloads the
    // artifact bit-identically.
    ProgramCache restarted(cacheConfig(4, 1, dir_.string()));
    auto loaded = restarted.lookup(fp);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(restarted.stats().disk_hits, 1u);
    EXPECT_EQ(programArtifactString(*loaded),
              programArtifactString(*program));
    ASSERT_NE(loaded->library, nullptr);
    // Promoted into memory: the second lookup is an in-memory hit.
    EXPECT_EQ(restarted.lookup(fp), loaded);
    EXPECT_EQ(restarted.stats().hits, 1u);
}

TEST_F(ProgramCacheDiskTest, DiskHitCountsTheArtifactsBytes)
{
    const Fingerprint fp = key(9);
    const std::string text = programArtifactString(*makeProgram(9));
    std::filesystem::create_directories(dir_);
    std::ofstream(dir_ / (fp.hex() + ".qzzprog")) << text;
    ProgramCache cache(cacheConfig(4, 1, dir_.string()));
    ASSERT_NE(cache.lookup(fp), nullptr);
    const ProgramCacheStats stats = cache.stats();
    EXPECT_EQ(stats.disk_hits, 1u);
    EXPECT_EQ(stats.entry_bytes, text.size());
    EXPECT_EQ(stats.entry_bytes,
              std::filesystem::file_size(dir_ / (fp.hex() + ".qzzprog")));
}

TEST_F(ProgramCacheDiskTest, TornArtifactIsTreatedAsMiss)
{
    // A document cut off mid-member, as a crash between open and
    // write could leave behind without the temp-then-rename.
    const Fingerprint fp = key(7);
    const std::string text = programArtifactString(*makeProgram(7));
    std::filesystem::create_directories(dir_);
    std::ofstream(dir_ / (fp.hex() + ".qzzprog"))
        << text.substr(0, text.size() / 2);
    ProgramCache cache(cacheConfig(4, 1, dir_.string()));
    EXPECT_EQ(cache.lookup(fp), nullptr);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ProgramCacheDiskTest, CorruptCountFieldsAreMissesNotCrashes)
{
    // Counts are array lengths in the JSON document, and every number
    // is range-checked before it is narrowed: an operand list off the
    // kind's arity, a negative or huge operand, a count-like member
    // of the wrong type — each a nullopt, never a resize() to it.
    const auto program = makeProgram(3);
    const std::string text = programArtifactString(*program);
    const std::string good = R"("qubits":[0])";
    ASSERT_NE(text.find(good), std::string::npos) << text;
    const auto mangled = [&](const std::string &what) {
        std::string out = text;
        out.replace(out.find(good), good.size(), what);
        return out;
    };
    for (const std::string &bad :
         {mangled(R"("qubits":[0,0])"), mangled(R"("qubits":[-1])"),
          mangled(R"("qubits":[18446744073709551616])"),
          mangled(R"("qubits":1)"), mangled(R"("qubits":[1e999])")}) {
        std::istringstream in(bad);
        EXPECT_FALSE(readProgramArtifact(in, false).has_value()) << bad;
    }

    // And through the cache's disk tier: a miss, not a dead worker.
    const Fingerprint fp = key(9);
    std::filesystem::create_directories(dir_);
    std::ofstream(dir_ / (fp.hex() + ".qzzprog"))
        << mangled(R"("qubits":[-1])");
    ProgramCache cache(cacheConfig(4, 1, dir_.string()));
    EXPECT_EQ(cache.lookup(fp), nullptr);

    // A huge native register costs nothing: the decoder allocates
    // nothing ahead of the elements actually present.
    std::string huge = text;
    const std::string qubits = R"("qubits":1,)";
    ASSERT_NE(huge.find(qubits), std::string::npos);
    huge.replace(huge.find(qubits), qubits.size(),
                 R"("qubits":2147483647,)");
    std::istringstream in(huge);
    const auto back = readProgramArtifact(in, false);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->native.numQubits(), 2147483647);
}

TEST_F(ProgramCacheDiskTest, UnreadableArtifactIsReplacedByTheRecompile)
{
    // A version-2 text artifact (what an older build left in the
    // directory) under the request's fingerprint: the lookup misses,
    // the request compiles, and the recompiled program's write
    // replaces the file, so a fresh process gets a disk hit.
    Rng rng(2);
    auto device = std::make_shared<const dev::Device>(
        graph::gridTopology(2, 2), dev::DeviceParams{}, rng);
    CompileRequest request;
    request.circuit = ckt::qft(4);
    request.device = device;
    request.options.pulse = core::PulseMethod::Gaussian;
    request.options.sched = core::SchedPolicy::Zzx;
    const Fingerprint fp = fingerprintRequest(
        request.circuit, *request.device, request.options);
    std::filesystem::create_directories(dir_);
    const auto path = dir_ / (fp.hex() + ".qzzprog");
    std::ofstream(path) << "qzzprog 2\npulse_method Gaussian\n"
                           "sched_policy ZZXSched\ncalib_epoch 0\n";

    CompileServiceConfig config;
    config.num_workers = 1;
    config.cache = cacheConfig(4, 1, dir_.string());
    std::shared_ptr<const core::CompiledProgram> compiled;
    {
        CompileService service(config);
        ServiceResult result = service.submit(request).get();
        ASSERT_EQ(result.outcome, Outcome::Compiled);
        EXPECT_EQ(result.fingerprint, fp);
        EXPECT_EQ(service.cache().stats().disk_writes, 1u);
        compiled = result.program;
    }

    ProgramCache restarted(cacheConfig(4, 1, dir_.string()));
    const auto loaded = restarted.lookup(fp);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(restarted.stats().disk_hits, 1u);
    EXPECT_EQ(programArtifactString(*loaded),
              programArtifactString(*compiled));
}

TEST_F(ProgramCacheDiskTest, ArtifactAboveTheJsonDefaultBoundRoundTrips)
{
    // A synthetic program whose artifact is past the 4 MiB
    // json::kMaxDocumentBytes bound of request lines and calibration
    // documents but within kMaxArtifactBytes: it persists and
    // reloads bit-identically.
    constexpr int kQubits = 64;
    core::CompiledProgram p;
    p.native = ckt::QuantumCircuit(kQubits, "wide");
    p.schedule.num_qubits = kQubits;
    p.pulse_method = core::PulseMethod::Gaussian;
    p.sched_policy = core::SchedPolicy::Zzx;
    Rng rng(4);
    for (int l = 0; l < 3500; ++l) {
        core::Layer layer;
        layer.duration = rng.uniform(10.0, 60.0);
        for (int q = 0; q < kQubits; ++q) {
            layer.side.push_back(rng.uniformInt(0, 1));
            layer.metrics.region_of.push_back(rng.uniformInt(0, 40));
            layer.metrics.unsuppressed_edge.push_back(
                char(rng.uniformInt(0, 1)));
        }
        for (int q = 0; q + 1 < kQubits; q += 8) {
            const ckt::Gate g(ckt::GateKind::RZ, {q}, {rng.uniform()});
            p.native.add(g);
            layer.gates.push_back({g, false});
        }
        p.schedule.layers.push_back(std::move(layer));
    }
    auto program =
        std::make_shared<const core::CompiledProgram>(std::move(p));
    const std::string text = programArtifactString(*program);
    ASSERT_GT(text.size(), json::kMaxDocumentBytes);
    ASSERT_LE(text.size(), kMaxArtifactBytes);

    const Fingerprint fp = key(77);
    {
        ProgramCache cache(cacheConfig(4, 1, dir_.string()));
        cache.insert(fp, program);
        EXPECT_EQ(cache.stats().disk_writes, 1u);
    }
    ProgramCache restarted(cacheConfig(4, 1, dir_.string()));
    const auto loaded = restarted.lookup(fp);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(restarted.stats().disk_hits, 1u);
    EXPECT_EQ(programArtifactString(*loaded), text);
}

TEST_F(ProgramCacheDiskTest, ArtifactRoundTripWithoutLibrary)
{
    const auto program = makeProgram(3);
    const std::string text = programArtifactString(*program);
    std::istringstream in(text);
    const auto back = readProgramArtifact(in, /*attach_library=*/false);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->library, nullptr);
    EXPECT_EQ(programArtifactString(*back), text);
}

TEST(ProgramCacheStressTest, ConcurrentInsertLookupEvict)
{
    // Hammer a small, heavily-sharded cache from many threads: the
    // per-shard LRUs must stay internally consistent and the capacity
    // bound must hold throughout.  Run under ASan/UBSan (unit label)
    // and TSan (service label CI job).
    ProgramCache cache(cacheConfig(16, 4));
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 400;
    constexpr uint64_t kKeySpace = 64;

    std::vector<std::shared_ptr<const core::CompiledProgram>> programs;
    for (int i = 0; i < int(kKeySpace); ++i)
        programs.push_back(makeProgram(i));

    std::vector<std::thread> threads;
    std::atomic<uint64_t> lookups{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(uint64_t(t) + 1);
            for (int op = 0; op < kOpsPerThread; ++op) {
                const uint64_t k =
                    uint64_t(rng.uniformInt(0, int(kKeySpace) - 1));
                const int kind = rng.uniformInt(0, 9);
                if (kind < 6) {
                    if (auto hit = cache.lookup(key(k))) {
                        EXPECT_EQ(hit->schedule.layers[0].duration,
                                  double(k));
                    }
                    lookups.fetch_add(1);
                } else if (kind < 9) {
                    cache.insert(key(k), programs[size_t(k)]);
                } else if (op % 100 == 99) {
                    cache.clear();
                }
                EXPECT_LE(cache.size(), 16u);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    const ProgramCacheStats s = cache.stats();
    EXPECT_EQ(s.hits + s.misses, lookups.load());
    EXPECT_LE(cache.size(), 16u);
}

} // namespace
} // namespace qzz::svc
