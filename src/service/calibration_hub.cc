#include "service/calibration_hub.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "common/json.h"
#include "service/artifact_gc.h"
#include "service/program_cache.h"
#include "service/trace.h"

namespace qzz::svc {

namespace fs = std::filesystem;

namespace {

/** Strictly parse a positive decimal integer bounded by @p max. */
bool
parseCount(std::string_view s, int max, int &out)
{
    if (s.empty() || s.size() > 9)
        return false;
    long v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + (c - '0');
    }
    if (v < 1 || v > max)
        return false;
    out = int(v);
    return true;
}

/** Parse "RxC" with both dimensions in [1, max]. */
bool
parseDims(std::string_view s, int max, int &rows, int &cols)
{
    const size_t x = s.find('x');
    if (x == std::string_view::npos)
        return false;
    return parseCount(s.substr(0, x), max, rows) &&
           parseCount(s.substr(x + 1), max, cols);
}

} // namespace

std::optional<graph::Topology>
topologyFromName(const std::string &name)
{
    // Bound the dimensions well below anything the serving path
    // accepts (256 qubits), so a hostile watch-file name cannot ask
    // for a giant topology allocation.
    constexpr int kMaxDim = 4096;
    const std::string_view sv(name);
    try {
        int r = 0, c = 0, n = 0;
        if (sv.starts_with("grid-") &&
            parseDims(sv.substr(5), kMaxDim, r, c))
            return graph::gridTopology(r, c);
        if (sv.starts_with("trigrid-") &&
            parseDims(sv.substr(8), kMaxDim, r, c))
            return graph::triangulatedGridTopology(r, c);
        if (sv.starts_with("heavyhex-") &&
            parseDims(sv.substr(9), kMaxDim, r, c))
            return graph::heavyHexTopology(r, c);
        if (sv.starts_with("line-") &&
            parseCount(sv.substr(5), kMaxDim, n))
            return graph::lineTopology(n);
        if (sv.starts_with("ring-") &&
            parseCount(sv.substr(5), kMaxDim, n))
            return graph::ringTopology(n);
    } catch (const std::exception &) {
        // A factory rejecting its dimensions is a malformed name.
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------------
// CalibrationHub
// ---------------------------------------------------------------------------

CalibrationHub::CalibrationHub(CalibrationHubConfig config,
                               ProgramCache *cache, ArtifactGc *gc)
    : config_(std::move(config)), cache_(cache), gc_(gc),
      registry_(config_.metrics
                    ? config_.metrics
                    : std::make_shared<tel::MetricsRegistry>())
{
    tel::MetricsRegistry &reg = *registry_;
    epochs_applied_ = &reg.counter("qzz_calib_epochs_applied_total",
                                   "Calibration pushes applied.");
    updates_rejected_ =
        &reg.counter("qzz_calib_updates_rejected_total",
                     "Calibration pushes rejected (validation or "
                     "stale epoch).");
    entries_invalidated_ =
        &reg.counter("qzz_calib_entries_invalidated_total",
                     "In-memory cache entries swept by rolls.");
    watch_loads_ = &reg.counter(
        "qzz_calib_watch_loads_total",
        "Watch-directory snapshots successfully applied.");
    watch_errors_ =
        &reg.counter("qzz_calib_watch_errors_total",
                     "Watch-directory files that failed to load.");
}

CalibrationHub::~CalibrationHub() { stopWatch(); }

std::string
CalibrationHub::deviceKey(const std::string &topology_name,
                          uint64_t device_seed)
{
    return topology_name + "#" + std::to_string(device_seed);
}

CalibrationUpdate
CalibrationHub::reject(CalibrationUpdate update, std::string why)
{
    update.applied = false;
    update.error = std::move(why);
    updates_rejected_->inc();
    return update;
}

CalibrationUpdate
CalibrationHub::apply(graph::Topology topo, uint64_t device_seed,
                      dev::Calibration calib, const std::string &source)
{
    CalibrationUpdate update;
    update.device_key = deviceKey(topo.name, device_seed);
    update.epoch = calib.epoch;

    try {
        calib.validateFor(topo);
    } catch (const std::exception &e) {
        return reject(std::move(update), e.what());
    }

    // Epochs are strictly monotonic per device: the implicit boot
    // generation is epoch 0, so the first push must carry >= 1.
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = live_.find(update.device_key);
        const uint64_t current =
            it == live_.end() ? 0 : it->second.epoch;
        if (calib.epoch <= current) {
            updates_rejected_->inc();
            update.error = "stale epoch " +
                           std::to_string(calib.epoch) + " (live is " +
                           std::to_string(current) + ")";
            return update;
        }
    }

    const std::string calib_id = calib.id;
    std::shared_ptr<const dev::Device> device;
    try {
        device = std::make_shared<const dev::Device>(std::move(topo),
                                                     std::move(calib));
    } catch (const std::exception &e) {
        return reject(std::move(update), e.what());
    }

    uint64_t sweep_below = 0;
    {
        // Re-check monotonicity under the lock: a racing apply() for
        // the same key may have landed a newer epoch while the device
        // was being built.
        std::lock_guard<std::mutex> lock(mu_);
        Generation &gen = live_[update.device_key];
        if (update.epoch <= gen.epoch) {
            updates_rejected_->inc();
            update.error = "stale epoch " +
                           std::to_string(update.epoch) + " (live is " +
                           std::to_string(gen.epoch) + ")";
            return update;
        }
        gen.device = std::move(device);
        gen.epoch = update.epoch;
        max_applied_epoch_ = std::max(max_applied_epoch_, update.epoch);
        epochs_applied_->inc();
        if (config_.keep_epochs > 0 &&
            max_applied_epoch_ >= uint64_t(config_.keep_epochs))
            sweep_below =
                max_applied_epoch_ - uint64_t(config_.keep_epochs) + 1;
    }
    update.applied = true;

    // Invalidation fan-out happens outside the hub lock: the sweep
    // takes per-shard cache mutexes and a GC pass does file IO.
    if (cache_ && sweep_below > 0) {
        update.entries_invalidated =
            cache_->sweepEpochsBelow(sweep_below);
        entries_invalidated_->inc(update.entries_invalidated);
    }
    if (gc_) {
        const ArtifactGcStats s = gc_->run();
        update.gc_evicted = s.evicted;
        update.gc_evicted_epoch = s.evicted_epoch;
    }

    notify(update, calib_id, source);
    return update;
}

void
CalibrationHub::notify(const CalibrationUpdate &update,
                       const std::string &id, const std::string &source)
{
    std::string line;
    json::Writer(line)
        .beginObject()
        .field("event", "calib_epoch")
        .field("device", update.device_key)
        .field("epoch", update.epoch)
        .field("calib_id", id)
        .field("entries_invalidated", update.entries_invalidated)
        .field("source", source)
        .endObject();
    line += '\n';
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto &[token, sink] : subscribers_)
        sink(line);
}

std::shared_ptr<const dev::Device>
CalibrationHub::liveDevice(const std::string &topology_name,
                           uint64_t device_seed) const
{
    const std::string key = deviceKey(topology_name, device_seed);
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_.find(key);
    return it == live_.end() ? nullptr : it->second.device;
}

uint64_t
CalibrationHub::currentEpoch(const std::string &device_key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = live_.find(device_key);
    return it == live_.end() ? 0 : it->second.epoch;
}

uint64_t
CalibrationHub::subscribe(EventSink sink)
{
    std::lock_guard<std::mutex> lock(subs_mu_);
    const uint64_t token = next_token_++;
    subscribers_.emplace(token, std::move(sink));
    return token;
}

void
CalibrationHub::unsubscribe(uint64_t token)
{
    std::lock_guard<std::mutex> lock(subs_mu_);
    subscribers_.erase(token);
}

size_t
CalibrationHub::subscriberCount() const
{
    std::lock_guard<std::mutex> lock(subs_mu_);
    return subscribers_.size();
}

CalibrationHubStats
CalibrationHub::stats() const
{
    CalibrationHubStats s;
    s.epochs_applied = epochs_applied_->value();
    s.updates_rejected = updates_rejected_->value();
    s.entries_invalidated = entries_invalidated_->value();
    s.watch_loads = watch_loads_->value();
    s.watch_errors = watch_errors_->value();
    std::lock_guard<std::mutex> lock(mu_);
    s.last_watch_latency_ms = last_watch_latency_ms_;
    s.current.reserve(live_.size());
    for (const auto &[key, gen] : live_)
        s.current.emplace_back(key, gen.epoch);
    return s;
}

// ---------------------------------------------------------------------------
// Watch directory
// ---------------------------------------------------------------------------

void
CalibrationHub::startWatch()
{
    if (config_.watch_dir.empty() || watcher_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(watch_mu_);
        watch_stop_ = false;
    }
    watcher_ = std::thread([this] { watchLoop(); });
}

void
CalibrationHub::stopWatch()
{
    {
        std::lock_guard<std::mutex> lock(watch_mu_);
        watch_stop_ = true;
    }
    watch_cv_.notify_all();
    if (watcher_.joinable())
        watcher_.join();
}

void
CalibrationHub::watchLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(watch_mu_);
            watch_cv_.wait_for(lock, config_.watch_interval,
                               [this] { return watch_stop_; });
            if (watch_stop_)
                return;
        }
        pollWatchDir();
    }
}

size_t
CalibrationHub::pollWatchDir()
{
    if (config_.watch_dir.empty())
        return 0;
    std::error_code ec;
    fs::directory_iterator it(config_.watch_dir, ec);
    if (ec)
        return 0;

    // Deterministic processing order so a burst of dropped files
    // applies in a stable sequence.
    std::vector<fs::path> paths;
    for (const auto &entry : it) {
        if (entry.path().extension() == ".qzzcalib")
            paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());

    size_t applied = 0;
    for (const fs::path &path : paths) {
        const int64_t mtime_ms = fileMtimeMs(path);
        const uint64_t size = uint64_t(fs::file_size(path, ec));
        const auto sig = std::make_pair(mtime_ms, ec ? 0 : size);
        {
            // Mark the version processed up front: a file that fails
            // to load or is rejected is not retried until it changes.
            std::lock_guard<std::mutex> lock(mu_);
            auto seen = watch_seen_.find(path.string());
            if (seen != watch_seen_.end() && seen->second == sig)
                continue;
            watch_seen_[path.string()] = sig;
        }

        // "<topology-name>@<device_seed>.qzzcalib"
        const std::string stem = path.stem().string();
        const size_t at = stem.rfind('@');
        std::optional<graph::Topology> topo;
        uint64_t device_seed = 0;
        if (at != std::string::npos && at + 1 < stem.size()) {
            const std::string seed_str = stem.substr(at + 1);
            char *end = nullptr;
            device_seed = std::strtoull(seed_str.c_str(), &end, 10);
            if (end == seed_str.c_str() + seed_str.size())
                topo = topologyFromName(stem.substr(0, at));
        }
        if (!topo) {
            watch_errors_->inc();
            continue;
        }

        std::string error;
        auto calib = dev::loadCalibrationFile(path.string(), &error);
        if (!calib) {
            watch_errors_->inc();
            continue;
        }

        const CalibrationUpdate update =
            apply(std::move(*topo), device_seed, std::move(*calib),
                  "watch:" + path.filename().string());
        if (update.applied) {
            ++applied;
            watch_loads_->inc();
            std::lock_guard<std::mutex> lock(mu_);
            last_watch_latency_ms_ =
                std::max(0.0, unixNowMs() - double(mtime_ms));
        }
        // A rejected update (stale epoch, bad snapshot) is already
        // counted in updates_rejected; it is not a watch IO error.
    }
    return applied;
}

} // namespace qzz::svc
