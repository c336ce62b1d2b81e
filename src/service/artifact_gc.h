/**
 * @file
 * Garbage collection for the shared on-disk artifact tier.
 *
 * N server processes share one artifact directory (program_cache.h
 * writes one "<fingerprint>.qzzprog" file per compiled program).  The
 * directory is its own index: each ArtifactGc pass scans it, takes
 * size and mtime from stat() and calib_epoch from the artifact's own
 * header, and enforces three bounds:
 *
 *   - byte capacity: least-recently-used artifacts (by file mtime;
 *     disk hits touch the file) are evicted until the directory fits;
 *   - max age: artifacts older than the bound are evicted;
 *   - stale calibration epochs: with keep_epochs = K, artifacts whose
 *     calib_epoch trails the newest epoch in the directory by K or
 *     more are evicted — a calibration roll retires the old
 *     generation instead of leaving it pinned by recency.
 *
 * Concurrency model (docs/formats.md#artifact-directory):
 *   - Writers take no lock: an artifact is renamed into place whole.
 *   - ArtifactGc::run() holds an in-process mutex for the whole pass
 *     and an advisory exclusive flock on manifest.lock, so passes in
 *     one process and across processes serialize.
 *   - Readers take no lock at all: a cache lookup just opens the
 *     artifact file, and if GC unlinked it first the open fails and
 *     the lookup falls back to a miss (an already-open file survives
 *     unlink, so in-progress loads always complete).
 */

#ifndef QZZ_SERVICE_ARTIFACT_GC_H
#define QZZ_SERVICE_ARTIFACT_GC_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/telemetry.h"
#include "service/fingerprint.h"

namespace qzz::svc {

/** File mtime as milliseconds since the Unix epoch; 0 on error. */
int64_t fileMtimeMs(const std::filesystem::path &path);

/** ArtifactGc policy knobs; a zero value disables that bound. */
struct ArtifactGcConfig
{
    /** Directory byte bound (sum of *.qzzprog sizes). */
    uint64_t capacity_bytes = 0;
    /** Evict artifacts whose mtime is older than this. */
    std::chrono::milliseconds max_age{0};
    /** Keep only the newest K calibration epochs present in the
     *  directory: artifacts with calib_epoch <= max_epoch - K are
     *  evicted.  0 keeps every epoch. */
    int keep_epochs = 0;
};

/** What one ArtifactGc::run() pass did. */
struct ArtifactGcStats
{
    uint64_t scanned = 0;          ///< artifacts present before the pass
    uint64_t adopted = 0;          ///< epochs this pass read from headers
    uint64_t evicted = 0;          ///< artifacts deleted
    uint64_t evicted_age = 0;      ///< ... for exceeding max_age
    uint64_t evicted_epoch = 0;    ///< ... for a stale calib_epoch
    uint64_t evicted_capacity = 0; ///< ... LRU under the byte bound
    uint64_t bytes_before = 0;
    uint64_t bytes_after = 0;
    uint64_t max_epoch = 0; ///< newest calib_epoch seen
};

/**
 * The artifact-tier garbage collector.  run() executes one pass (safe
 * to call concurrently from any thread or process — the pass mutex
 * and the directory lock serialize).  start() runs passes on a
 * background thread at a fixed interval; maybeCollect() is the
 * write-path hook: it runs a pass only when a cheap directory scan
 * shows the byte capacity exceeded, so a burst of cold compiles
 * cannot overshoot the bound by more than one artifact per process
 * for long.
 */
class ArtifactGc
{
  public:
    /** @p metrics: registry the GC reports into (qzz_gc_*); null
     *  gives it a private registry. */
    ArtifactGc(std::string dir, ArtifactGcConfig config,
               std::shared_ptr<tel::MetricsRegistry> metrics = nullptr);
    ~ArtifactGc();

    ArtifactGc(const ArtifactGc &) = delete;
    ArtifactGc &operator=(const ArtifactGc &) = delete;

    /** One GC pass; returns what it did. */
    ArtifactGcStats run();

    /** Run a pass iff the directory currently exceeds the byte
     *  capacity (no-op when capacity_bytes is 0 or a pass is already
     *  running in this process). */
    void maybeCollect();

    /** Current sum of artifact byte sizes in the directory (no lock:
     *  a moving target under concurrent writers). */
    uint64_t directoryBytes() const;

    /** Start periodic passes on a background thread.  Idempotent. */
    void start(std::chrono::milliseconds interval);
    /** Stop the background thread (joins).  Idempotent. */
    void stop();

    /** Cumulative stats of the most recent completed pass. */
    ArtifactGcStats lastStats() const;
    /** Total passes run by this instance. */
    uint64_t passes() const { return passes_.load(); }

    const std::string &dir() const { return dir_; }
    const ArtifactGcConfig &config() const { return config_; }

  private:
    /** run() with pass_mu_ held. */
    ArtifactGcStats runLocked();

    std::string dir_;
    ArtifactGcConfig config_;

    std::shared_ptr<tel::MetricsRegistry> registry_;
    tel::Counter *passes_counter_ = nullptr;
    tel::Counter *evicted_counter_ = nullptr;
    tel::Counter *evicted_age_counter_ = nullptr;
    tel::Counter *evicted_epoch_counter_ = nullptr;
    tel::Counter *evicted_capacity_counter_ = nullptr;
    tel::Gauge *tier_bytes_gauge_ = nullptr;

    /** Held for a whole pass; the only guard of epochs_. */
    std::mutex pass_mu_;
    /** calib_epoch of every artifact the last pass saw whose header
     *  parsed.  A fingerprint mixes the epoch, so a file name names
     *  one epoch for good and each header is read once. */
    std::unordered_map<Fingerprint, uint64_t, FingerprintHash> epochs_;
    std::atomic<uint64_t> passes_{0};

    mutable std::mutex stats_mu_;
    ArtifactGcStats last_stats_;

    std::mutex bg_mu_;
    std::condition_variable bg_cv_;
    bool bg_stop_ = false;
    std::thread bg_thread_;
};

} // namespace qzz::svc

#endif // QZZ_SERVICE_ARTIFACT_GC_H
