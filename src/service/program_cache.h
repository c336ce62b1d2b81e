/**
 * @file
 * ProgramCache: a sharded, mutex-striped in-memory LRU of compiled
 * programs keyed by request fingerprint, with an optional on-disk
 * artifact tier.
 *
 * Requests for the same (circuit DAG, device, options) triple
 * fingerprint identically (service/fingerprint.h) and compilation is
 * deterministic, so a cached CompiledProgram is bit-identical to what
 * a cold compile would produce — the cache hands out shared_ptrs to
 * immutable programs instead of recompiling.
 *
 * Concurrency: keys are striped over N independent shards (fingerprint
 * low bits), each with its own mutex, LRU list and map, so concurrent
 * service workers rarely contend.  Counters are lock-free atomics.
 *
 * Disk tier: when an artifact directory is configured, insertions are
 * persisted as "<fingerprint>.qzzprog" via the same write-private-
 * temp-then-rename pattern as the pulse calibration store, so
 * concurrent writers can never leave a torn artifact; misses fall
 * back to loading from disk (surviving process restarts and sharing
 * warm state between processes).  An artifact that does not read back
 * (another version, torn, corrupt) is a miss, and the recompiled
 * program's write replaces it; a program whose artifact would exceed
 * kMaxArtifactBytes stays in memory only.  Each persisted artifact is recorded
 * in the directory's manifest.jsonl under an advisory file lock, and
 * the tier is bounded by svc::ArtifactGc (artifact_gc.h): N server
 * processes share one directory, with lock-free readers falling back
 * to a miss when GC races an eviction under them.  Disk hits touch
 * the artifact's mtime so the GC's LRU order tracks use, not just
 * creation.
 */

#ifndef QZZ_SERVICE_PROGRAM_CACHE_H
#define QZZ_SERVICE_PROGRAM_CACHE_H

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/telemetry.h"
#include "core/framework.h"
#include "service/fingerprint.h"

namespace qzz::svc {

class ArtifactGc;

/** ProgramCache construction knobs. */
struct ProgramCacheConfig
{
    /** Total in-memory entry bound across all shards (>= 1).  The
     *  effective bound is shards * ceil(capacity / shards): never
     *  below this value, at most shards - 1 above it. */
    size_t capacity = 256;
    /** Mutex stripes; rounded up to a power of two, capped by
     *  capacity so every shard can hold at least one entry. */
    int shards = 8;
    /** On-disk artifact tier directory; empty disables the tier. */
    std::string artifact_dir;
    /** Artifact-tier garbage collector (artifact_gc.h).  When set,
     *  every artifact write is followed by ArtifactGc::maybeCollect()
     *  so the directory's byte bound holds under load instead of
     *  waiting for the next periodic pass. */
    std::shared_ptr<ArtifactGc> gc;
    /** Instrument registry the cache reports into (qzz_cache_*);
     *  null gives the cache a private registry. */
    std::shared_ptr<tel::MetricsRegistry> metrics;
};

/** Monotonic counters + current occupancy of a ProgramCache. */
struct ProgramCacheStats
{
    uint64_t hits = 0;        ///< in-memory lookup hits
    uint64_t misses = 0;      ///< lookups answered by neither tier
    uint64_t evictions = 0;   ///< LRU entries dropped for capacity
    uint64_t insertions = 0;  ///< successful insert() calls
    uint64_t disk_hits = 0;   ///< misses rescued by the artifact tier
    uint64_t disk_writes = 0; ///< artifacts persisted
    /** Cumulative artifact bytes persisted to the disk tier — the
     *  write-side number the GC's byte bound meters against. */
    uint64_t disk_bytes_written = 0;
    size_t entries = 0;       ///< current in-memory entry count
    /** Sum of the per-entry artifact byte sizes of the in-memory
     *  entries (each entry's size is its serialized-artifact length,
     *  the same accounting unit as the on-disk manifest). */
    uint64_t entry_bytes = 0;

    double
    hitRate() const
    {
        const uint64_t total = hits + disk_hits + misses;
        return total == 0 ? 0.0
                          : double(hits + disk_hits) / double(total);
    }
};

/** Sharded LRU cache of immutable compiled programs. */
class ProgramCache
{
  public:
    explicit ProgramCache(ProgramCacheConfig config = {});

    ProgramCache(const ProgramCache &) = delete;
    ProgramCache &operator=(const ProgramCache &) = delete;

    /**
     * Fetch the program for @p key, refreshing its LRU position.
     * Falls back to the artifact tier on an in-memory miss (the
     * loaded program is promoted into memory).  nullptr on miss.
     */
    std::shared_ptr<const core::CompiledProgram>
    lookup(const Fingerprint &key);

    /**
     * Insert @p program under @p key (no-op if already present,
     * refreshing recency).  Evicts the shard's least-recently-used
     * entries beyond capacity and persists to the artifact tier.
     */
    void insert(const Fingerprint &key,
                std::shared_ptr<const core::CompiledProgram> program);

    /**
     * True iff @p key is resident in the in-memory tier right now.
     * Touches no counters and no LRU state, and never goes to disk —
     * this is the cheap admission probe (compile_service.h boosts
     * requests whose fingerprint is already warm), not a lookup.
     */
    bool contains(const Fingerprint &key) const;

    /** Drop every in-memory entry (artifact tier is untouched). */
    void clear();

    /**
     * Drop every in-memory entry compiled against a calibration epoch
     * below @p min_epoch — the invalidation half of a calibration
     * roll (CalibrationHub).  The artifact tier is untouched: disk
     * entries are retired by ArtifactGc's keep_epochs bound instead.
     * Returns the number of entries removed.
     */
    size_t sweepEpochsBelow(uint64_t min_epoch);

    /** Current in-memory entry count. */
    size_t size() const;

    /** Snapshot of the counters. */
    ProgramCacheStats stats() const;

    const ProgramCacheConfig &config() const { return config_; }

  private:
    struct Entry
    {
        Fingerprint key;
        std::shared_ptr<const core::CompiledProgram> program;
        /** Serialized-artifact size (the manifest accounting unit). */
        uint64_t bytes = 0;
    };
    struct Shard
    {
        mutable std::mutex mu;
        /** Front = most recently used. */
        std::list<Entry> lru;
        std::unordered_map<Fingerprint, std::list<Entry>::iterator,
                           FingerprintHash>
            map;
        /** Sum of Entry::bytes over this shard's entries. */
        uint64_t bytes = 0;
    };

    Shard &shardFor(const Fingerprint &key);
    const Shard &shardFor(const Fingerprint &key) const;
    void insertLocked(Shard &shard, const Fingerprint &key,
                      std::shared_ptr<const core::CompiledProgram> program,
                      uint64_t bytes);
    std::shared_ptr<const core::CompiledProgram>
    loadArtifact(const Fingerprint &key, uint64_t &bytes);
    /** Persists @p program's artifact; false when it was not
     *  rendered (no directory, no temp file), else @p bytes is its
     *  size, whether or not the file landed. */
    bool storeArtifact(const Fingerprint &key,
                       const core::CompiledProgram &program, uint64_t &bytes);

    ProgramCacheConfig config_;
    size_t shard_capacity_ = 1;
    std::vector<std::unique_ptr<Shard>> shards_;

    /** Keeps the fallback registry alive when none was configured;
     *  the instruments below live in it (or the shared one). */
    std::shared_ptr<tel::MetricsRegistry> registry_;
    tel::Counter *hits_ = nullptr;
    tel::Counter *misses_ = nullptr;
    tel::Counter *evictions_ = nullptr;
    tel::Counter *insertions_ = nullptr;
    tel::Counter *disk_hits_ = nullptr;
    tel::Counter *disk_writes_ = nullptr;
    tel::Counter *disk_bytes_written_ = nullptr;
    tel::Gauge *entries_gauge_ = nullptr;
    tel::Gauge *entry_bytes_gauge_ = nullptr;
};

} // namespace qzz::svc

#endif // QZZ_SERVICE_PROGRAM_CACHE_H
