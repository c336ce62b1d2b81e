#include "service/program_cache.h"

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <system_error>
#include <thread>

#include "common/error.h"
#include "service/artifact.h"
#include "service/artifact_gc.h"

namespace qzz::svc {

namespace {

/** Smallest power of two >= v (v >= 1). */
size_t
ceilPow2(size_t v)
{
    size_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

std::filesystem::path
artifactPath(const std::string &dir, const Fingerprint &key)
{
    return std::filesystem::path(dir) / (key.hex() + ".qzzprog");
}

} // namespace

ProgramCache::ProgramCache(ProgramCacheConfig config)
    : config_(std::move(config))
{
    require(config_.capacity >= 1, "ProgramCache: capacity must be >= 1");
    require(config_.shards >= 1, "ProgramCache: shards must be >= 1");
    size_t n = ceilPow2(size_t(config_.shards));
    // Never more shards than capacity: each shard must be able to
    // hold at least one entry for the total bound to be meaningful.
    while (n > config_.capacity)
        n >>= 1;
    config_.shards = int(n);
    // Ceiling division: floor would silently under-provision (e.g.
    // capacity 10 over 8 shards evicting at 8 entries).  The
    // effective bound is n * ceil(capacity / n), i.e. never below
    // the configured capacity and at most shards - 1 above it.
    shard_capacity_ = (config_.capacity + n - 1) / n;
    shards_.reserve(n);
    for (size_t i = 0; i < n; ++i)
        shards_.push_back(std::make_unique<Shard>());
    registry_ = config_.metrics
                    ? config_.metrics
                    : std::make_shared<tel::MetricsRegistry>();
    tel::MetricsRegistry &reg = *registry_;
    hits_ = &reg.counter("qzz_cache_hits_total",
                         "In-memory program-cache lookup hits.");
    misses_ = &reg.counter(
        "qzz_cache_misses_total",
        "Program-cache lookups answered by neither tier.");
    evictions_ = &reg.counter("qzz_cache_evictions_total",
                              "LRU entries dropped for capacity.");
    insertions_ = &reg.counter("qzz_cache_insertions_total",
                               "Successful insert() calls.");
    disk_hits_ = &reg.counter(
        "qzz_cache_disk_hits_total",
        "In-memory misses rescued by the artifact tier.");
    disk_writes_ = &reg.counter("qzz_cache_disk_writes_total",
                                "Artifacts persisted to the disk tier.");
    disk_bytes_written_ =
        &reg.counter("qzz_cache_disk_bytes_written_total",
                     "Cumulative artifact bytes persisted.");
    entries_gauge_ = &reg.gauge("qzz_cache_entries",
                                "Current in-memory entry count.");
    entry_bytes_gauge_ =
        &reg.gauge("qzz_cache_entry_bytes",
                   "Serialized bytes of the in-memory entries.");
}

ProgramCache::Shard &
ProgramCache::shardFor(const Fingerprint &key)
{
    // The fingerprint lanes are avalanche-mixed; the low bits of lo
    // are as good as any hash.
    return *shards_[size_t(key.lo) & (shards_.size() - 1)];
}

const ProgramCache::Shard &
ProgramCache::shardFor(const Fingerprint &key) const
{
    return *shards_[size_t(key.lo) & (shards_.size() - 1)];
}

bool
ProgramCache::contains(const Fingerprint &key) const
{
    const Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.map.find(key) != shard.map.end();
}

std::shared_ptr<const core::CompiledProgram>
ProgramCache::lookup(const Fingerprint &key)
{
    Shard &shard = shardFor(key);
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.map.find(key);
        if (it != shard.map.end()) {
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            hits_->inc();
            return it->second->program;
        }
    }
    uint64_t bytes = 0;
    if (auto program = loadArtifact(key, bytes)) {
        disk_hits_->inc();
        std::lock_guard<std::mutex> lock(shard.mu);
        insertLocked(shard, key, program, bytes);
        return program;
    }
    misses_->inc();
    return nullptr;
}

void
ProgramCache::insert(const Fingerprint &key,
                     std::shared_ptr<const core::CompiledProgram> program)
{
    require(program != nullptr, "ProgramCache::insert: null program");
    // Render exactly once, streamed: the document's size is the
    // entry's byte accounting (the unit the GC's byte bound uses)
    // and, when the disk tier is on, the document is the file.
    uint64_t bytes = 0;
    if (config_.artifact_dir.empty() || !storeArtifact(key, *program, bytes))
        bytes = writeProgramArtifact(*program, nullptr);
    Shard &shard = shardFor(key);
    {
        std::lock_guard<std::mutex> lock(shard.mu);
        insertLocked(shard, key, std::move(program), bytes);
    }
    insertions_->inc();
}

void
ProgramCache::insertLocked(
    Shard &shard, const Fingerprint &key,
    std::shared_ptr<const core::CompiledProgram> program, uint64_t bytes)
{
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        shard.bytes += bytes - it->second->bytes;
        it->second->program = std::move(program);
        it->second->bytes = bytes;
        return;
    }
    shard.lru.push_front(Entry{key, std::move(program), bytes});
    shard.map.emplace(key, shard.lru.begin());
    shard.bytes += bytes;
    while (shard.lru.size() > shard_capacity_) {
        shard.bytes -= shard.lru.back().bytes;
        shard.map.erase(shard.lru.back().key);
        shard.lru.pop_back();
        evictions_->inc();
    }
}

void
ProgramCache::clear()
{
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->lru.clear();
        shard->map.clear();
        shard->bytes = 0;
    }
}

size_t
ProgramCache::sweepEpochsBelow(uint64_t min_epoch)
{
    size_t removed = 0;
    for (auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        for (auto it = shard->lru.begin(); it != shard->lru.end();) {
            if (it->program->calib_epoch < min_epoch) {
                shard->bytes -= it->bytes;
                shard->map.erase(it->key);
                it = shard->lru.erase(it);
                ++removed;
            } else {
                ++it;
            }
        }
    }
    return removed;
}

size_t
ProgramCache::size() const
{
    size_t total = 0;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        total += shard->lru.size();
    }
    return total;
}

ProgramCacheStats
ProgramCache::stats() const
{
    ProgramCacheStats s;
    s.hits = hits_->value();
    s.misses = misses_->value();
    s.evictions = evictions_->value();
    s.insertions = insertions_->value();
    s.disk_hits = disk_hits_->value();
    s.disk_writes = disk_writes_->value();
    s.disk_bytes_written = disk_bytes_written_->value();
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mu);
        s.entries += shard->lru.size();
        s.entry_bytes += shard->bytes;
    }
    // Occupancy gauges refresh on this read path (stats() sits on
    // both the metrics verb and the scrape render).
    entries_gauge_->set(double(s.entries));
    entry_bytes_gauge_->set(double(s.entry_bytes));
    return s;
}

std::shared_ptr<const core::CompiledProgram>
ProgramCache::loadArtifact(const Fingerprint &key, uint64_t &bytes)
{
    if (config_.artifact_dir.empty())
        return nullptr;
    const auto path = artifactPath(config_.artifact_dir, key);
    std::ifstream in(path);
    if (!in)
        return nullptr; // includes a GC eviction racing this lookup
    // A corrupt artifact must read as a miss, never kill a serving
    // worker.
    try {
        std::optional<core::CompiledProgram> program =
            readProgramArtifact(in);
        if (!program)
            return nullptr; // torn/stale artifact: treat as a miss
        // The size of the file that was read, not of whatever the name
        // points at now: the GC may unlink it under this reader.
        const auto size = in.rdbuf()->pubseekoff(0, std::ios::end,
                                                  std::ios::in);
        bytes = size < 0 ? 0 : uint64_t(size);
        // Touch the artifact so the GC's LRU-by-mtime order reflects
        // use; best effort (the file may already be evicted).
        std::error_code ec;
        std::filesystem::last_write_time(
            path, std::filesystem::file_time_type::clock::now(), ec);
        return std::make_shared<const core::CompiledProgram>(
            std::move(*program));
    } catch (const std::exception &) {
        return nullptr;
    }
}

bool
ProgramCache::storeArtifact(const Fingerprint &key,
                            const core::CompiledProgram &program,
                            uint64_t &bytes)
{
    std::error_code ec;
    std::filesystem::create_directories(config_.artifact_dir, ec);
    if (ec)
        return false; // the artifact tier is best-effort
    const auto final_path = artifactPath(config_.artifact_dir, key);
    // Write-private temp then rename, exactly like the pulse
    // calibration store: concurrent writers can never tear a file.
    // The rename replaces whatever is there, so an artifact this
    // build cannot read (another version, torn, corrupt) gives way to
    // the program recompiled in its place; concurrent writers of one
    // fingerprint write identical bytes.
    static const unsigned process_tag = std::random_device{}();
    static std::atomic<unsigned> counter{0};
    const auto suffix =
        std::to_string(process_tag) + "." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id())) +
        "." + std::to_string(counter.fetch_add(1));
    const auto tmp = final_path.string() + ".tmp." + suffix;
    bool ok;
    {
        std::ofstream out(tmp);
        if (!out)
            return false;
        bytes = writeProgramArtifact(program, &out);
        out.flush();
        // Past kMaxArtifactBytes it could not be read back: the
        // program stays in the memory tier only.
        ok = out.good() && bytes <= kMaxArtifactBytes;
    }
    if (ok) {
        std::filesystem::rename(tmp, final_path, ec);
        if (!ec) {
            disk_writes_->inc();
            disk_bytes_written_->inc(bytes);
            // Let the GC enforce the byte bound while the write is
            // still hot.
            if (config_.gc)
                config_.gc->maybeCollect();
        }
    }
    if (!ok || ec)
        std::filesystem::remove(tmp, ec);
    return true;
}

} // namespace qzz::svc
