#include "service/artifact_gc.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <system_error>
#include <tuple>
#include <vector>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "service/artifact.h"
#include "service/trace.h"

namespace qzz::svc {

namespace fs = std::filesystem;

namespace {

/**
 * RAII advisory exclusive flock on an artifact directory's lock file
 * (blocking).  The file keeps the name manifest.lock, which daemons
 * of older builds (which kept a manifest index beside the artifacts)
 * lock too, so their passes and appends still serialize against this
 * build's passes over a shared directory.  A lock that cannot be
 * taken degrades to best effort: deletions stay safe (remove
 * tolerates a concurrent unlink).
 */
class ArtifactDirLock
{
  public:
    explicit ArtifactDirLock(const std::string &dir)
    {
        fd_ = ::open((fs::path(dir) / "manifest.lock").c_str(),
                     O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~ArtifactDirLock()
    {
        if (fd_ >= 0) {
            ::flock(fd_, LOCK_UN);
            ::close(fd_);
        }
    }

    ArtifactDirLock(const ArtifactDirLock &) = delete;
    ArtifactDirLock &operator=(const ArtifactDirLock &) = delete;

  private:
    int fd_ = -1;
};

} // namespace

int64_t
fileMtimeMs(const fs::path &path)
{
    std::error_code ec;
    const auto ftime = fs::last_write_time(path, ec);
    if (ec)
        return 0;
    // Portable file_clock -> system_clock conversion (clock_cast is
    // not in this libstdc++): rebase by the distance between the two
    // clocks' nows.  Millisecond-exact is not needed — callers only
    // order files relative to each other or to now.
    const auto sys = std::chrono::system_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::system_clock::duration>(
                         ftime - fs::file_time_type::clock::now());
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               sys.time_since_epoch())
        .count();
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
    std::lock_guard<std::mutex> pass(pass_mu_);
    return runLocked();
}

ArtifactGcStats
ArtifactGc::runLocked()
{
    ArtifactGcStats stats;
    std::error_code ec;
    if (!fs::is_directory(dir_, ec) || ec)
        return stats;

    // Serializes this pass against the passes of every other process
    // sharing the directory.
    const ArtifactDirLock lock(dir_);

    struct Item
    {
        Fingerprint fp;
        uint64_t bytes = 0;
        int64_t mtime_ms = 0;
        uint64_t calib_epoch = 0;
        bool evict = false;
    };
    std::vector<Item> items;
    // The memo is rebuilt from each scan, so it never outgrows the
    // directory.  A header that does not parse counts as epoch 0 for
    // this pass and is not remembered: a file rewritten in its place
    // is read again.
    std::unordered_map<Fingerprint, uint64_t, FingerprintHash> epochs;
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
        std::optional<uint64_t> epoch;
        if (const auto memo = epochs_.find(*fp); memo != epochs_.end()) {
            epoch = memo->second;
        } else {
            std::ifstream artifact(path);
            epoch = readArtifactCalibEpoch(artifact);
            stats.adopted += epoch.has_value();
        }
        if (epoch)
            epochs.emplace(*fp, *epoch);
        items.push_back({*fp, bytes, fileMtimeMs(path), epoch.value_or(0)});
        ++stats.scanned;
        stats.bytes_before += bytes;
        stats.max_epoch = std::max(stats.max_epoch, epoch.value_or(0));
    }
    epochs_.swap(epochs);

    // Bound 1 + 2: age and stale calibration epochs.
    const auto now = int64_t(unixNowMs());
    uint64_t remaining = stats.bytes_before;
    for (Item &item : items) {
        if (config_.max_age.count() > 0 &&
            now - item.mtime_ms > config_.max_age.count()) {
            item.evict = true;
            ++stats.evicted_age;
        } else if (config_.keep_epochs > 0 &&
                   item.calib_epoch + uint64_t(config_.keep_epochs) <=
                       stats.max_epoch) {
            item.evict = true;
            ++stats.evicted_epoch;
        }
        if (item.evict)
            remaining -= item.bytes;
    }

    // Bound 3: byte capacity, LRU by mtime over the survivors.  Ties
    // break on (hi, lo), the order of the fingerprints' hex names.
    if (config_.capacity_bytes > 0 && remaining > config_.capacity_bytes) {
        std::vector<Item *> survivors;
        for (Item &item : items)
            if (!item.evict)
                survivors.push_back(&item);
        std::sort(survivors.begin(), survivors.end(),
                  [](const Item *a, const Item *b) {
                      return std::tie(a->mtime_ms, a->fp.hi, a->fp.lo) <
                             std::tie(b->mtime_ms, b->fp.hi, b->fp.lo);
                  });
        for (Item *item : survivors) {
            if (remaining <= config_.capacity_bytes)
                break;
            item->evict = true;
            ++stats.evicted_capacity;
            remaining -= item->bytes;
        }
    }

    for (const Item &item : items) {
        if (item.evict) {
            ++stats.evicted;
            std::error_code rm_ec;
            fs::remove(fs::path(dir_) / (item.fp.hex() + ".qzzprog"), rm_ec);
        } else {
            stats.bytes_after += item.bytes;
        }
    }

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
    // single collection, not a pileup behind the pass mutex.
    std::unique_lock<std::mutex> pass(pass_mu_, std::try_to_lock);
    if (pass.owns_lock())
        runLocked();
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
