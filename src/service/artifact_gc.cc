#include "service/artifact_gc.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <unordered_map>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/json.h"
#include "service/artifact.h"
#include "service/jsonl.h"

namespace qzz::svc {

namespace fs = std::filesystem;

namespace {

fs::path
manifestPath(const std::string &dir)
{
    return fs::path(dir) / "manifest.jsonl";
}

fs::path
lockPath(const std::string &dir)
{
    return fs::path(dir) / "manifest.lock";
}

int64_t
nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** File mtime as milliseconds since the Unix epoch; 0 on error. */
int64_t
fileMtimeMs(const fs::path &path)
{
    std::error_code ec;
    const auto ftime = fs::last_write_time(path, ec);
    if (ec)
        return 0;
    // Portable file_clock -> system_clock conversion (clock_cast is
    // not in this libstdc++): rebase by the distance between the two
    // clocks' nows.  Millisecond-exact is not needed — the GC only
    // orders artifacts relative to each other.
    const auto sys = std::chrono::system_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::system_clock::duration>(
                         ftime - fs::file_time_type::clock::now());
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               sys.time_since_epoch())
        .count();
}

std::string
manifestLine(const ManifestEntry &e)
{
    std::string line;
    json::Writer(line)
        .beginObject()
        .field("fp", e.fp.hex())
        .field("bytes", e.bytes)
        .field("mtime_ms", e.mtime_ms)
        .field("calib_epoch", e.calib_epoch)
        .endObject();
    return line + '\n';
}

std::string
manifestHeader()
{
    std::string line;
    json::Writer(line)
        .beginObject()
        .field("qzz_manifest", kManifestVersion)
        .endObject();
    return line + '\n';
}

} // namespace

// ---------------------------------------------------------------------------
// Locking + manifest I/O
// ---------------------------------------------------------------------------

ArtifactDirLock::ArtifactDirLock(const std::string &dir)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return;
    const int fd =
        ::open(lockPath(dir).c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0)
        return;
    if (::flock(fd, LOCK_EX) != 0) {
        ::close(fd);
        return;
    }
    fd_ = fd;
}

ArtifactDirLock::~ArtifactDirLock()
{
    if (fd_ >= 0) {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }
}

bool
appendManifestEntry(const std::string &dir, const ManifestEntry &e)
{
    ArtifactDirLock lock(dir);
    if (!lock.ok())
        return false;
    const fs::path path = manifestPath(dir);
    std::error_code ec;
    const bool fresh = !fs::exists(path, ec) || fs::file_size(path, ec) == 0;
    std::ofstream out(path, std::ios::app);
    if (!out)
        return false;
    if (fresh)
        out << manifestHeader();
    out << manifestLine(e);
    out.flush();
    return out.good();
}

std::vector<ManifestEntry>
readManifest(const std::string &dir)
{
    std::vector<ManifestEntry> entries;
    std::ifstream in(manifestPath(dir));
    if (!in)
        return entries;
    std::string line;
    bool header_ok = false;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        const auto obj = JsonObject::parse(line);
        if (!obj)
            continue; // a torn append tail reads as absent, never fatal
        if (!header_ok) {
            // First parseable line must be a matching version header;
            // otherwise the whole file is treated as absent and the
            // next GC pass rebuilds it from the directory scan.
            const auto version = obj->getInt("qzz_manifest");
            if (!version || *version != kManifestVersion)
                return {};
            header_ok = true;
            continue;
        }
        const auto fp_hex = obj->getString("fp");
        const auto bytes = obj->getInt("bytes");
        const auto mtime = obj->getInt("mtime_ms");
        const auto epoch = obj->getInt("calib_epoch");
        if (!fp_hex || !bytes || !mtime || !epoch || *bytes < 0 ||
            *epoch < 0)
            continue;
        const auto fp = Fingerprint::fromHex(*fp_hex);
        if (!fp)
            continue;
        entries.push_back(
            {*fp, uint64_t(*bytes), *mtime, uint64_t(*epoch)});
    }
    return entries;
}

// ---------------------------------------------------------------------------
// ArtifactGc
// ---------------------------------------------------------------------------

ArtifactGc::ArtifactGc(std::string dir, ArtifactGcConfig config,
                       std::shared_ptr<tel::MetricsRegistry> metrics)
    : dir_(std::move(dir)), config_(config),
      registry_(metrics ? std::move(metrics)
                        : std::make_shared<tel::MetricsRegistry>())
{
    tel::MetricsRegistry &reg = *registry_;
    passes_counter_ =
        &reg.counter("qzz_gc_passes_total", "Artifact GC passes run.");
    evicted_counter_ = &reg.counter("qzz_gc_evicted_total",
                                    "Artifacts deleted by GC.");
    evicted_age_counter_ = &reg.counter(
        "qzz_gc_evicted_age_total", "Artifacts evicted for max_age.");
    evicted_epoch_counter_ =
        &reg.counter("qzz_gc_evicted_epoch_total",
                     "Artifacts evicted for a stale calib_epoch.");
    evicted_capacity_counter_ =
        &reg.counter("qzz_gc_evicted_capacity_total",
                     "Artifacts evicted under the byte bound (LRU).");
    tier_bytes_gauge_ =
        &reg.gauge("qzz_gc_tier_bytes",
                   "Artifact-tier bytes after the last GC pass.");
}

ArtifactGc::~ArtifactGc() { stop(); }

uint64_t
ArtifactGc::directoryBytes() const
{
    uint64_t total = 0;
    std::error_code ec;
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        if (it->path().extension() != ".qzzprog")
            continue;
        std::error_code size_ec;
        const auto size = fs::file_size(it->path(), size_ec);
        if (!size_ec)
            total += size;
    }
    return total;
}

ArtifactGcStats
ArtifactGc::run()
{
    ArtifactGcStats stats;
    std::error_code ec;
    if (!fs::is_directory(dir_, ec) || ec)
        return stats;

    // The lock serializes this pass against manifest appends and GC
    // passes in every process sharing the directory.  A failed lock
    // degrades to best effort: deletions stay safe (remove tolerates
    // a concurrent unlink) and a lost manifest append is re-adopted
    // by the next pass.
    ArtifactDirLock lock(dir_);

    struct Item
    {
        ManifestEntry entry;
        bool present = false;
        bool evict = false;
    };
    std::unordered_map<std::string, Item> items;
    for (const ManifestEntry &e : readManifest(dir_)) {
        ++stats.manifest_entries;
        items[e.fp.hex()].entry = e; // last append wins
    }

    // Reconcile with the directory: stat() is the authority on size
    // and recency; the manifest's calib_epoch survives (the file
    // header is only parsed for adopted strays).
    for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
         it.increment(ec)) {
        const fs::path &path = it->path();
        if (path.extension() != ".qzzprog")
            continue;
        const auto fp = Fingerprint::fromHex(path.stem().string());
        if (!fp)
            continue;
        std::error_code size_ec;
        const uint64_t bytes = fs::file_size(path, size_ec);
        if (size_ec)
            continue;
        auto [slot, inserted] = items.try_emplace(fp->hex());
        if (inserted) {
            ++stats.adopted;
            slot->second.entry.fp = *fp;
            std::ifstream artifact(path);
            slot->second.entry.calib_epoch =
                readArtifactCalibEpoch(artifact);
        }
        slot->second.entry.bytes = bytes;
        slot->second.entry.mtime_ms = fileMtimeMs(path);
        slot->second.present = true;
    }

    std::vector<Item *> live;
    for (auto &[hex, item] : items) {
        if (!item.present) {
            ++stats.dropped_lines;
            continue;
        }
        ++stats.scanned;
        stats.bytes_before += item.entry.bytes;
        stats.max_epoch = std::max(stats.max_epoch, item.entry.calib_epoch);
        live.push_back(&item);
    }

    // Bound 1 + 2: age and stale calibration epochs.
    const int64_t now = nowMs();
    uint64_t remaining = stats.bytes_before;
    for (Item *item : live) {
        if (config_.max_age.count() > 0 &&
            now - item->entry.mtime_ms > config_.max_age.count()) {
            item->evict = true;
            ++stats.evicted_age;
        } else if (config_.keep_epochs > 0 &&
                   item->entry.calib_epoch + uint64_t(config_.keep_epochs) <=
                       stats.max_epoch) {
            item->evict = true;
            ++stats.evicted_epoch;
        }
        if (item->evict)
            remaining -= item->entry.bytes;
    }

    // Bound 3: byte capacity, LRU by mtime over the survivors.
    if (config_.capacity_bytes > 0 && remaining > config_.capacity_bytes) {
        std::vector<Item *> survivors;
        for (Item *item : live)
            if (!item->evict)
                survivors.push_back(item);
        std::sort(survivors.begin(), survivors.end(),
                  [](const Item *a, const Item *b) {
                      if (a->entry.mtime_ms != b->entry.mtime_ms)
                          return a->entry.mtime_ms < b->entry.mtime_ms;
                      return a->entry.fp.hex() < b->entry.fp.hex();
                  });
        for (Item *item : survivors) {
            if (remaining <= config_.capacity_bytes)
                break;
            item->evict = true;
            ++stats.evicted_capacity;
            remaining -= item->entry.bytes;
        }
    }

    std::vector<const ManifestEntry *> kept;
    for (Item *item : live) {
        if (item->evict) {
            ++stats.evicted;
            std::error_code rm_ec;
            fs::remove(fs::path(dir_) /
                           (item->entry.fp.hex() + ".qzzprog"),
                       rm_ec);
        } else {
            stats.bytes_after += item->entry.bytes;
            kept.push_back(&item->entry);
        }
    }

    // Compact the manifest (temp + rename, like every other writer in
    // this codebase: a crashed GC can never leave a torn manifest).
    const fs::path final_path = manifestPath(dir_);
    const fs::path tmp = final_path.string() + ".tmp." +
                         std::to_string(uint64_t(::getpid()));
    bool ok = false;
    {
        std::ofstream out(tmp);
        if (out) {
            out << manifestHeader();
            for (const ManifestEntry *e : kept)
                out << manifestLine(*e);
            out.flush();
            ok = out.good();
        }
    }
    std::error_code rename_ec;
    if (ok)
        fs::rename(tmp, final_path, rename_ec);
    if (!ok || rename_ec)
        fs::remove(tmp, rename_ec);

    passes_.fetch_add(1, std::memory_order_relaxed);
    passes_counter_->inc();
    evicted_counter_->inc(stats.evicted);
    evicted_age_counter_->inc(stats.evicted_age);
    evicted_epoch_counter_->inc(stats.evicted_epoch);
    evicted_capacity_counter_->inc(stats.evicted_capacity);
    tier_bytes_gauge_->set(double(stats.bytes_after));
    {
        std::lock_guard<std::mutex> guard(stats_mu_);
        last_stats_ = stats;
    }
    return stats;
}

void
ArtifactGc::maybeCollect()
{
    if (config_.capacity_bytes == 0)
        return;
    if (directoryBytes() <= config_.capacity_bytes)
        return;
    // One pass at a time per process: a burst of writers triggers a
    // single collection, not a pileup behind the directory lock.
    if (collecting_.exchange(true))
        return;
    run();
    collecting_.store(false);
}

ArtifactGcStats
ArtifactGc::lastStats() const
{
    std::lock_guard<std::mutex> guard(stats_mu_);
    return last_stats_;
}

void
ArtifactGc::start(std::chrono::milliseconds interval)
{
    std::lock_guard<std::mutex> guard(bg_mu_);
    if (bg_thread_.joinable() || interval.count() <= 0)
        return;
    bg_stop_ = false;
    bg_thread_ = std::thread([this, interval] {
        std::unique_lock<std::mutex> lock(bg_mu_);
        while (!bg_cv_.wait_for(lock, interval,
                                [this] { return bg_stop_; })) {
            lock.unlock();
            run();
            lock.lock();
        }
    });
}

void
ArtifactGc::stop()
{
    std::thread joinee;
    {
        std::lock_guard<std::mutex> guard(bg_mu_);
        bg_stop_ = true;
        joinee.swap(bg_thread_);
    }
    bg_cv_.notify_all();
    if (joinee.joinable())
        joinee.join();
}

} // namespace qzz::svc
