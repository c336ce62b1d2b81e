/**
 * @file
 * Artifact-tier GC unit tests: manifest round trips, version gating,
 * the three eviction bounds (age, stale epoch, byte capacity with
 * LRU-by-mtime), reconciliation (adopting unlisted files, dropping
 * dead manifest lines), and Fingerprint::fromHex.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>

#include "service/artifact.h"
#include "service/artifact_gc.h"
#include "service/fingerprint.h"

namespace qzz::svc {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class ArtifactGcTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("qzz_gc_test_" +
                 std::to_string(
                     ::testing::UnitTest::GetInstance()->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** A deterministic fingerprint for artifact @p i. */
    static Fingerprint
    fp(uint64_t i)
    {
        return Fingerprint{0x1000 + i, 0x2000 + i};
    }

    /** Write a fake artifact file: a JSON document with the version
     *  and calib_epoch members (the GC reads calib_epoch out of it
     *  when adopting) padded with trailing whitespace to @p bytes,
     *  with mtime @p age in the past. */
    void
    writeArtifact(const Fingerprint &key, size_t bytes, uint64_t epoch,
                  std::chrono::seconds age = 0s)
    {
        const fs::path path = fs::path(dir_) / (key.hex() + ".qzzprog");
        std::string content =
            "{\"qzzprog\":" + std::to_string(kArtifactVersion) +
            ",\"pulse_method\":\"Gaussian\",\"sched_policy\":"
            "\"ZZXSched\",\"calib_epoch\":" +
            std::to_string(epoch) + "}\n";
        if (content.size() < bytes)
            content.resize(bytes, ' ');
        std::ofstream(path) << content;
        if (age.count() > 0)
            fs::last_write_time(
                path, fs::file_time_type::clock::now() - age);
    }

    bool
    artifactExists(const Fingerprint &key) const
    {
        return fs::exists(fs::path(dir_) / (key.hex() + ".qzzprog"));
    }

    std::string dir_;
};

TEST(FingerprintFromHexTest, RoundTripsAndRejectsMalformedInput)
{
    const Fingerprint key{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
    const auto parsed = Fingerprint::fromHex(key.hex());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, key);
    EXPECT_EQ(parsed->hex(), key.hex());

    EXPECT_FALSE(Fingerprint::fromHex(""));
    EXPECT_FALSE(Fingerprint::fromHex("abc"));                // short
    EXPECT_FALSE(Fingerprint::fromHex(key.hex() + "0"));      // long
    EXPECT_FALSE(Fingerprint::fromHex(
        "0123456789ABCDEF0123456789abcdef"));                 // uppercase
    EXPECT_FALSE(Fingerprint::fromHex(
        "0123456789abcdeg0123456789abcdef"));                 // non-hex
}

TEST_F(ArtifactGcTest, ManifestRoundTripsThroughAppendAndRead)
{
    ManifestEntry a{fp(1), 100, 1111, 3};
    ManifestEntry b{fp(2), 200, 2222, 4};
    ASSERT_TRUE(appendManifestEntry(dir_, a));
    ASSERT_TRUE(appendManifestEntry(dir_, b));

    const auto entries = readManifest(dir_);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].fp, a.fp);
    EXPECT_EQ(entries[0].bytes, 100u);
    EXPECT_EQ(entries[0].mtime_ms, 1111);
    EXPECT_EQ(entries[0].calib_epoch, 3u);
    EXPECT_EQ(entries[1].fp, b.fp);
}

TEST_F(ArtifactGcTest, ManifestVersionMismatchReadsAsAbsent)
{
    std::ofstream(fs::path(dir_) / "manifest.jsonl")
        << "{\"qzz_manifest\":999}\n"
        << "{\"fp\":\"" << fp(1).hex()
        << "\",\"bytes\":10,\"mtime_ms\":1,\"calib_epoch\":0}\n";
    EXPECT_TRUE(readManifest(dir_).empty());
}

TEST_F(ArtifactGcTest, MalformedManifestLinesAreSkippedNotFatal)
{
    ASSERT_TRUE(appendManifestEntry(dir_, {fp(1), 100, 1111, 0}));
    {
        std::ofstream out(fs::path(dir_) / "manifest.jsonl",
                          std::ios::app);
        out << "not json at all\n";
        out << "{\"fp\":\"zzz\",\"bytes\":1,\"mtime_ms\":1,"
               "\"calib_epoch\":0}\n"; // bad fingerprint
        out << "{\"fp\":\"" << fp(2).hex() << "\"}\n"; // missing fields
    }
    ASSERT_TRUE(appendManifestEntry(dir_, {fp(3), 300, 3333, 0}));

    const auto entries = readManifest(dir_);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].fp, fp(1));
    EXPECT_EQ(entries[1].fp, fp(3));
}

TEST_F(ArtifactGcTest, CapacityBoundEvictsLruByMtime)
{
    // Three 1000-byte artifacts; the middle-aged one was touched most
    // recently.  A 2000-byte capacity must drop exactly the
    // least-recently-used file.
    writeArtifact(fp(1), 1000, 0, /*age=*/300s); // oldest -> evicted
    writeArtifact(fp(2), 1000, 0, /*age=*/200s);
    writeArtifact(fp(3), 1000, 0, /*age=*/100s);

    ArtifactGcConfig config;
    config.capacity_bytes = 2000;
    ArtifactGc gc(dir_, config);
    const ArtifactGcStats stats = gc.run();

    EXPECT_EQ(stats.scanned, 3u);
    EXPECT_EQ(stats.evicted, 1u);
    EXPECT_EQ(stats.evicted_capacity, 1u);
    EXPECT_EQ(stats.bytes_before, 3000u);
    EXPECT_LE(stats.bytes_after, 2000u);
    EXPECT_FALSE(artifactExists(fp(1)));
    EXPECT_TRUE(artifactExists(fp(2)));
    EXPECT_TRUE(artifactExists(fp(3)));
    EXPECT_LE(gc.directoryBytes(), 2000u);

    // The compacted manifest lists exactly the survivors.
    const auto entries = readManifest(dir_);
    ASSERT_EQ(entries.size(), 2u);
}

TEST_F(ArtifactGcTest, MaxAgeEvictsOldArtifacts)
{
    writeArtifact(fp(1), 500, 0, /*age=*/3600s);
    writeArtifact(fp(2), 500, 0);

    ArtifactGcConfig config;
    config.max_age = 60s;
    ArtifactGc gc(dir_, config);
    const ArtifactGcStats stats = gc.run();

    EXPECT_EQ(stats.evicted_age, 1u);
    EXPECT_FALSE(artifactExists(fp(1)));
    EXPECT_TRUE(artifactExists(fp(2)));
}

TEST_F(ArtifactGcTest, StaleCalibEpochsAreRetired)
{
    // Epochs present: 1, 3, 4.  keep_epochs = 2 keeps epochs > 4 - 2,
    // i.e. 3 and 4; the epoch-1 artifact goes even though it is the
    // most recently used file.
    writeArtifact(fp(1), 500, 1);
    writeArtifact(fp(3), 500, 3, /*age=*/100s);
    writeArtifact(fp(4), 500, 4, /*age=*/200s);

    ArtifactGcConfig config;
    config.keep_epochs = 2;
    ArtifactGc gc(dir_, config);
    const ArtifactGcStats stats = gc.run();

    EXPECT_EQ(stats.max_epoch, 4u);
    EXPECT_EQ(stats.evicted_epoch, 1u);
    EXPECT_FALSE(artifactExists(fp(1)));
    EXPECT_TRUE(artifactExists(fp(3)));
    EXPECT_TRUE(artifactExists(fp(4)));
}

TEST_F(ArtifactGcTest, ReconcileAdoptsStraysAndDropsDeadLines)
{
    // fp(1): file without a manifest line (a writer that crashed
    // between rename and append) — adopted, with its calib_epoch
    // recovered from the artifact header.
    writeArtifact(fp(1), 400, 7);
    // fp(2): manifest line without a file (evicted by another
    // process) — dropped.
    ASSERT_TRUE(appendManifestEntry(dir_, {fp(2), 400, 1, 0}));

    ArtifactGc gc(dir_, ArtifactGcConfig{});
    const ArtifactGcStats stats = gc.run();

    EXPECT_EQ(stats.adopted, 1u);
    EXPECT_EQ(stats.dropped_lines, 1u);
    EXPECT_EQ(stats.evicted, 0u);

    const auto entries = readManifest(dir_);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].fp, fp(1));
    EXPECT_EQ(entries[0].bytes, 400u);
    EXPECT_EQ(entries[0].calib_epoch, 7u);
}

TEST_F(ArtifactGcTest, MaybeCollectOnlyRunsWhenOverCapacity)
{
    writeArtifact(fp(1), 1000, 0);

    ArtifactGcConfig config;
    config.capacity_bytes = 4000;
    ArtifactGc gc(dir_, config);
    gc.maybeCollect(); // 1000 <= 4000: no pass
    EXPECT_EQ(gc.passes(), 0u);

    writeArtifact(fp(2), 2000, 0, /*age=*/100s);
    writeArtifact(fp(3), 2000, 0, /*age=*/200s);
    gc.maybeCollect(); // 5000 > 4000: one pass, evicts to fit
    EXPECT_EQ(gc.passes(), 1u);
    EXPECT_LE(gc.directoryBytes(), 4000u);
}

TEST_F(ArtifactGcTest, BackgroundThreadRunsPeriodicPasses)
{
    writeArtifact(fp(1), 100, 0);
    ArtifactGc gc(dir_, ArtifactGcConfig{});
    gc.start(5ms);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (gc.passes() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
    gc.stop();
    EXPECT_GE(gc.passes(), 1u);
    EXPECT_EQ(gc.lastStats().scanned, 1u);
}

TEST_F(ArtifactGcTest, NonArtifactFilesAreNeverTouched)
{
    writeArtifact(fp(1), 5000, 0);
    std::ofstream(fs::path(dir_) / "notes.txt") << "keep me";

    ArtifactGcConfig config;
    config.capacity_bytes = 1; // evict everything evictable
    ArtifactGc gc(dir_, config);
    gc.run();

    EXPECT_FALSE(artifactExists(fp(1)));
    EXPECT_TRUE(fs::exists(fs::path(dir_) / "notes.txt"));
    EXPECT_TRUE(fs::exists(fs::path(dir_) / "manifest.jsonl"));
}

} // namespace
} // namespace qzz::svc
