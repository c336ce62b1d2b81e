/**
 * @file
 * Artifact-tier GC unit tests: the three eviction bounds (age, stale
 * epoch, byte capacity with LRU-by-mtime), the per-artifact epoch
 * memo (each header read once; an unparseable header read again), the
 * files a pass leaves alone, and Fingerprint::fromHex.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
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
     *  and calib_epoch members (the GC reads calib_epoch out of its
     *  header) padded with trailing whitespace to @p bytes,
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

    /** Write an artifact-named file whose header does not parse. */
    void
    writeStray(const Fingerprint &key)
    {
        std::ofstream(fs::path(dir_) / (key.hex() + ".qzzprog"))
            << "not an artifact\n";
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

TEST_F(ArtifactGcTest, EachHeaderEpochIsReadOnce)
{
    // fp(1)'s header says epoch 7; fp(2)'s does not parse, so it
    // counts as epoch 0 and keep_epochs = 1 retires it.
    writeArtifact(fp(1), 400, 7);
    writeStray(fp(2));

    ArtifactGcConfig config;
    config.keep_epochs = 1;
    ArtifactGc gc(dir_, config);
    const ArtifactGcStats first = gc.run();
    EXPECT_EQ(first.scanned, 2u);
    EXPECT_EQ(first.adopted, 1u);
    EXPECT_EQ(first.max_epoch, 7u);
    EXPECT_EQ(first.evicted_epoch, 1u);
    EXPECT_TRUE(artifactExists(fp(1)));
    EXPECT_FALSE(artifactExists(fp(2)));

    // A file name names one epoch for good, so the second pass takes
    // fp(1)'s epoch from the memo, not from the (here rewritten)
    // header.
    writeArtifact(fp(1), 400, 0);
    const ArtifactGcStats second = gc.run();
    EXPECT_EQ(second.scanned, 1u);
    EXPECT_EQ(second.adopted, 0u);
    EXPECT_EQ(second.max_epoch, 7u);
    EXPECT_EQ(second.evicted, 0u);
}

TEST_F(ArtifactGcTest, UnparseableHeaderIsReadAgainAfterARewrite)
{
    writeStray(fp(5));
    ArtifactGc gc(dir_, ArtifactGcConfig{});
    const ArtifactGcStats first = gc.run();
    EXPECT_EQ(first.scanned, 1u);
    EXPECT_EQ(first.adopted, 0u);
    EXPECT_EQ(first.max_epoch, 0u);

    writeArtifact(fp(5), 400, 9);
    const ArtifactGcStats second = gc.run();
    EXPECT_EQ(second.adopted, 1u);
    EXPECT_EQ(second.max_epoch, 9u);
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
    const fs::path manifest = fs::path(dir_) / "manifest.jsonl";
    EXPECT_FALSE(fs::exists(manifest));

    // The index an older build kept beside the artifacts is ignored
    // and left byte-identical.
    const std::string old_index =
        "{\"qzz_manifest\":1}\n{\"fp\":\"" + fp(2).hex() +
        "\",\"bytes\":5000,\"mtime_ms\":1,\"calib_epoch\":0}\n";
    std::ofstream(manifest) << old_index;
    writeArtifact(fp(2), 5000, 0);
    gc.run();
    EXPECT_FALSE(artifactExists(fp(2)));
    std::ifstream in(manifest);
    const std::string after((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(after, old_index);
}

} // namespace
} // namespace qzz::svc
