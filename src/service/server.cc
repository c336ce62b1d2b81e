#include "service/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>
#include <vector>

#include <csignal>
#include <fcntl.h>
#include <unistd.h>

#include "circuit/benchmarks.h"
#include "common/error.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/pulse_opt.h"
#include "core/schedule_io.h"
#include "graph/topologies.h"
#include "service/artifact.h"
#include "service/artifact_gc.h"
#include "service/calibration_hub.h"
#include "service/jsonl.h"

namespace qzz::svc {

namespace {

/** Member @p key as a seed, @p fallback when absent.  Checked before
 *  the int64 -> uint64 conversion: a negative or non-integer value is
 *  an error naming the field, not a wrapped seed. */
uint64_t
seedField(const JsonObject &obj, const char *key, uint64_t fallback)
{
    if (!obj.has(key))
        return fallback;
    const auto v = obj.getInt(key);
    if (!v || *v < 0)
        fatal(std::string("bad '") + key + "' (non-negative integer)");
    return uint64_t(*v);
}

} // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(Server &server, Connection &conn)
    : server_(server), conn_(conn)
{
    writer_ = std::thread([this] { writerLoop(); });
}

Session::~Session()
{
    unsubscribeHub();
    stopWriter();
}

bool
Session::run()
{
    std::string line;
    uint64_t lineno = 0;
    bool quit = false;
    while (!quit && conn_.readLine(line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::string error;
        const auto obj = JsonObject::parse(line, &error);
        if (!obj) {
            enqueueError(std::to_string(lineno),
                         "parse error: " + error);
            continue;
        }
        if (const auto cmd = obj->getString("cmd")) {
            // Control records are synchronization points: settle
            // every earlier response before acting.
            waitForWriterIdle();
            if (*cmd == "quit") {
                quit = true;
            } else if (*cmd == "metrics") {
                respondMetrics(*obj);
            } else if (*cmd == "hello") {
                respondHello(*obj);
            } else if (*cmd == "gc") {
                respondGc();
            } else if (*cmd == "calibrate") {
                respondCalibrate(*obj);
            } else {
                enqueueError(requestId(*obj, lineno),
                             "unknown cmd '" + *cmd + "'");
            }
            continue;
        }
        handleRequest(*obj, lineno);
    }
    unsubscribeHub();
    stopWriter();
    return quit;
}

std::string
Session::requestId(const JsonObject &obj, uint64_t lineno)
{
    if (const auto id = obj.getString("id"))
        return *id;
    return std::to_string(lineno);
}

void
Session::handleRequest(const JsonObject &obj, uint64_t lineno)
{
    const std::string id = requestId(obj, lineno);

    const auto family = obj.getString("benchmark");
    if (!family) {
        enqueueError(id, "missing 'benchmark' (one of: " +
                             joinNames(ckt::benchmarkFamilyNames()) +
                             ")");
        return;
    }
    // Bounded before the int64 -> int narrowing: a huge value
    // must produce an error line, not a wrapped register size or
    // a generator allocation failure.
    constexpr int64_t kMaxQubits = 256;
    const auto qubits = obj.getInt("qubits");
    if (!qubits || *qubits < 2 || *qubits > kMaxQubits) {
        enqueueError(id, "missing or bad 'qubits' (integer in [2, " +
                             std::to_string(kMaxQubits) + "])");
        return;
    }
    uint64_t seed = 1;
    CompileRequest request;
    try {
        seed = seedField(obj, "seed", 1);
        auto circuit = ckt::namedBenchmark(*family, int(*qubits), seed);
        if (!circuit) {
            enqueueError(id, "unknown benchmark '" + *family +
                                 "' (one of: " +
                                 joinNames(
                                     ckt::benchmarkFamilyNames()) +
                                 ")");
            return;
        }
        request.circuit = std::move(*circuit);
        request.device = server_.deviceFor(obj, int(*qubits));
    } catch (const std::exception &e) {
        // UserError for bad parameters, plus anything a generator
        // or topology builder throws on extreme inputs: one error
        // line, never a dead daemon.
        enqueueError(id, e.what());
        return;
    }

    if (const auto pulse = obj.getString("pulse")) {
        const auto method = core::pulseMethodFromName(*pulse);
        if (!method) {
            enqueueError(id, "unknown pulse method '" + *pulse +
                                 "' (one of: " +
                                 joinNames(core::pulseMethodNames()) +
                                 ")");
            return;
        }
        request.options.pulse = *method;
    }
    if (const auto sched = obj.getString("sched")) {
        const auto policy = core::schedPolicyFromName(*sched);
        if (!policy) {
            enqueueError(id, "unknown scheduling policy '" + *sched +
                                 "' (one of: " +
                                 joinNames(core::schedPolicyNames()) +
                                 ")");
            return;
        }
        request.options.sched = *policy;
    }
    // Both bounded before the narrowing: an out-of-range value must
    // produce an error line, not a wrapped priority or an overflowing
    // deadline.
    constexpr int64_t kMaxDeadlineMs = 86'400'000;
    const auto priority = obj.getInt("priority");
    if (obj.has("priority") &&
        (!priority || *priority < std::numeric_limits<int>::min() ||
         *priority > std::numeric_limits<int>::max())) {
        enqueueError(id, "bad 'priority' (integer in int range)");
        return;
    }
    const auto deadline = obj.getNumber("deadline_ms");
    if (obj.has("deadline_ms") &&
        (!deadline || !(*deadline >= 0.0 && *deadline <= kMaxDeadlineMs))) {
        enqueueError(id, "bad 'deadline_ms' (number in [0, " +
                             std::to_string(kMaxDeadlineMs) + "])");
        return;
    }
    request.request.priority = int(priority.value_or(0));
    request.request.seed = seed;
    request.request.use_cache = obj.getBool("use_cache").value_or(true);
    // Every request carries a trace id — client-supplied for
    // cross-system correlation, minted here otherwise — and the
    // response echoes it whether or not span logging is on.
    request.request.trace_id =
        obj.getString("trace_id").value_or(std::string());
    if (request.request.trace_id.empty())
        request.request.trace_id = TraceLog::mintTraceId();
    if (deadline)
        request.request.deadline =
            std::chrono::milliseconds(int64_t(*deadline));

    Pending pending;
    pending.id = id;
    pending.label = request.circuit.name();
    pending.handle = server_.service().submit(std::move(request));
    OutItem item;
    item.pending = std::move(pending);
    enqueue(std::move(item));
}

// ---------------------------------------------------------------------------
// Ordered output: a writer thread blocks on each queued item in
// turn, so responses stream out the moment their turn completes
// while the reader keeps accepting requests.
// ---------------------------------------------------------------------------

void
Session::writerLoop()
{
    for (;;) {
        OutItem item;
        {
            std::unique_lock<std::mutex> lock(out_mu_);
            out_cv_.wait(lock,
                         [this] { return out_done_ || !out_.empty(); });
            if (out_.empty()) {
                if (out_done_)
                    return;
                continue;
            }
            item = std::move(out_.front());
            out_.pop_front();
            writer_busy_ = true;
        }
        if (item.is_raw)
            conn_.write(item.raw);
        else if (item.is_error)
            printError(item.id, item.message);
        else
            respond(item.pending, item.pending.handle.get());
        {
            std::lock_guard<std::mutex> lock(out_mu_);
            writer_busy_ = false;
            if (out_.empty())
                idle_cv_.notify_all();
        }
    }
}

void
Session::enqueue(OutItem item)
{
    {
        std::lock_guard<std::mutex> lock(out_mu_);
        out_.push_back(std::move(item));
    }
    out_cv_.notify_one();
}

void
Session::enqueueError(const std::string &id, const std::string &message)
{
    OutItem item;
    item.is_error = true;
    item.id = id;
    item.message = message;
    enqueue(std::move(item));
}

void
Session::enqueueRaw(std::string line)
{
    OutItem item;
    item.is_raw = true;
    item.raw = std::move(line);
    enqueue(std::move(item));
}

void
Session::unsubscribeHub()
{
    if (subscribed_) {
        server_.hub().unsubscribe(hub_token_);
        subscribed_ = false;
    }
}

void
Session::waitForWriterIdle()
{
    std::unique_lock<std::mutex> lock(out_mu_);
    idle_cv_.wait(lock,
                  [this] { return out_.empty() && !writer_busy_; });
}

void
Session::stopWriter()
{
    {
        std::lock_guard<std::mutex> lock(out_mu_);
        if (out_done_ && !writer_.joinable())
            return;
        out_done_ = true;
    }
    out_cv_.notify_all();
    if (writer_.joinable())
        writer_.join();
}

namespace {

double
unixNowMs()
{
    return double(std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::system_clock::now()
                          .time_since_epoch())
                      .count()) /
           1000.0;
}

} // namespace

void
Session::respond(const Pending &pending, const ServiceResult &result)
{
    const double respond_start = unixNowMs();
    const auto t0 = std::chrono::steady_clock::now();
    std::string payload;
    json::Writer w(payload);
    w.beginObject()
        .field("id", pending.id)
        .field("ok", result.ok())
        .field("outcome", outcomeName(result.outcome))
        .field("benchmark", pending.label)
        .field("fingerprint", result.fingerprint.hex())
        .field("cache_hit", result.outcome == Outcome::CacheHit)
        .field("queue_ms", result.queue_ms)
        .field("compile_ms", result.compile_ms);
    if (!result.trace_id.empty())
        w.field("trace_id", result.trace_id);
    if (result.ok()) {
        w.key("program");
        core::writeCompiledProgramJson(*result.program, w,
                                       server_.config().sample_dt);
    } else if (!result.status.message.empty()) {
        w.field("error", result.status.message);
    }
    w.endObject();
    payload += '\n';
    conn_.write(payload);
    // The final leaf of the request's span tree: serialization plus
    // the write back to the client, parented on the service's root
    // span (nonzero only when tracing is on).
    TraceLog *trace = server_.traceLog();
    if (trace && result.root_span_id != 0) {
        TraceSpan span;
        span.trace_id = result.trace_id;
        span.span_id = TraceLog::mintSpanId();
        span.parent_id = result.root_span_id;
        span.name = "respond";
        span.start_unix_ms = respond_start;
        span.duration_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count();
        span.attrs.emplace_back("bytes",
                                std::to_string(payload.size()));
        trace->emit(span);
    }
}

void
Session::printError(const std::string &id, const std::string &message)
{
    std::string line;
    json::Writer(line)
        .beginObject()
        .field("id", id)
        .field("ok", false)
        .field("error", message)
        .endObject();
    conn_.write(line + '\n');
}

void
Session::respondMetrics(const JsonObject &obj)
{
    // {"format":"prometheus"} returns the same exposition body the
    // scrape endpoint serves, as one escaped JSON string field (the
    // protocol stays strictly line-oriented).
    std::string line;
    json::Writer w(line);
    w.beginObject().field("metrics", true);
    if (obj.getString("format").value_or("json") == "prometheus") {
        w.field("format", "prometheus")
            .field("exposition", server_.renderPrometheus())
            .endObject();
        enqueueRaw(line + '\n');
        return;
    }
    const MetricsSnapshot m = server_.service().metrics();
    const CalibrationHubStats h = server_.hub().stats();
    w.field("submitted", m.submitted)
        .field("completed", m.completed)
        .field("failed", m.failed)
        .field("cancelled", m.cancelled)
        .field("expired", m.expired)
        .field("rejected", m.rejected)
        .field("cache_hits", m.cache_hits)
        .field("cache_misses", m.cache_misses)
        .field("coalesced", m.coalesced)
        .field("cache_hit_rate", m.cache_hit_rate)
        .field("queue_depth", m.queue_depth)
        .field("workers", m.workers)
        .field("throughput_per_s", m.throughput_per_s)
        .field("latency_p50_ms", m.latency_p50_ms)
        .field("latency_p95_ms", m.latency_p95_ms)
        .field("latency_p99_ms", m.latency_p99_ms)
        .field("warm_boosted", m.warm_boosted)
        .field("cache_entries", m.cache_stats.entries)
        .field("cache_entry_bytes", m.cache_stats.entry_bytes)
        .field("disk_writes", m.cache_stats.disk_writes)
        .field("disk_bytes_written", m.cache_stats.disk_bytes_written)
        .field("calib_epochs_applied", h.epochs_applied)
        .field("calib_updates_rejected", h.updates_rejected)
        .field("calib_entries_invalidated", h.entries_invalidated)
        .field("calib_watch_loads", h.watch_loads)
        .field("calib_watch_errors", h.watch_errors)
        .field("calib_watch_latency_ms", h.last_watch_latency_ms);
    w.key("calib_current").beginObject();
    for (const auto &[device, epoch] : h.current)
        w.field(device, epoch);
    w.endObject().endObject();
    enqueueRaw(line + '\n');
}

void
Session::respondHello(const JsonObject &obj)
{
    // The calib_events capability: subscribe this session to
    // asynchronous {"event":"calib_epoch"} frames (routed through the
    // writer queue, so they interleave whole-line with responses).
    // Re-sending hello with calib_events:false unsubscribes.
    if (const auto want = obj.getBool("calib_events")) {
        if (*want && !subscribed_) {
            hub_token_ = server_.hub().subscribe(
                [this](const std::string &line) { enqueueRaw(line); });
            subscribed_ = true;
        } else if (!*want && subscribed_) {
            unsubscribeHub();
        }
    }
    static constexpr const char *kTopologies[] = {"grid", "line", "ring",
                                                  "heavyhex", "trigrid"};
    static constexpr const char *kCommands[] = {"hello", "metrics", "gc",
                                                "calibrate", "quit"};
    static constexpr const char *kEvents[] = {"calib_epoch"};
    std::string line;
    json::Writer w(line);
    w.beginObject()
        .field("hello", true)
        .field("protocol_version", kProtocolVersion)
        .field("fingerprint_version", kFingerprintVersion)
        .field("artifact_version", kArtifactVersion)
        .field("manifest_version", kManifestVersion);
    w.key("benchmarks").array(ckt::benchmarkFamilyNames());
    w.key("pulse_methods").array(core::pulseMethodNames());
    w.key("sched_policies").array(core::schedPolicyNames());
    w.key("topologies").array(kTopologies);
    w.key("commands").array(kCommands);
    w.key("events").array(kEvents);
    w.field("calib_events", subscribed_).endObject();
    enqueueRaw(line + '\n');
}

void
Session::respondGc()
{
    ArtifactGc *gc = server_.gc();
    if (!gc) {
        enqueueRaw("{\"gc\":true,\"enabled\":false}\n");
        return;
    }
    const ArtifactGcStats s = gc->run();
    std::string line;
    json::Writer(line)
        .beginObject()
        .field("gc", true)
        .field("enabled", true)
        .field("scanned", s.scanned)
        .field("adopted", s.adopted)
        .field("dropped_lines", s.dropped_lines)
        .field("evicted", s.evicted)
        .field("evicted_age", s.evicted_age)
        .field("evicted_epoch", s.evicted_epoch)
        .field("evicted_capacity", s.evicted_capacity)
        .field("bytes_before", s.bytes_before)
        .field("bytes_after", s.bytes_after)
        .field("capacity_bytes", gc->config().capacity_bytes)
        .field("passes", gc->passes())
        .endObject();
    enqueueRaw(line + '\n');
}

void
Session::respondCalibrate(const JsonObject &obj)
{
    const auto fail = [this](const std::string &message) {
        std::string line;
        json::Writer(line)
            .beginObject()
            .field("calibrate", true)
            .field("applied", false)
            .field("error", message)
            .endObject();
        enqueueRaw(line + '\n');
    };
    // The protocol is flat JSON lines, so the snapshot document rides
    // as an escaped string field rather than a nested object.
    const auto snapshot = obj.getString("snapshot");
    if (!snapshot) {
        fail("missing 'snapshot' (calibration JSON document as a "
             "string)");
        return;
    }
    std::string parse_error;
    auto calib = dev::readCalibrationJson(*snapshot, &parse_error);
    if (!calib) {
        fail("bad snapshot: " + parse_error);
        return;
    }
    graph::Topology topo;
    uint64_t device_seed = 7;
    try {
        topo = server_.topologyFor(obj, calib->num_qubits);
        device_seed = seedField(obj, "device_seed", 7);
    } catch (const std::exception &e) {
        fail(e.what());
        return;
    }

    const CalibrationUpdate u = server_.hub().apply(
        std::move(topo), device_seed, std::move(*calib), "calibrate");
    std::string line;
    json::Writer w(line);
    w.beginObject()
        .field("calibrate", true)
        .field("applied", u.applied)
        .field("device", u.device_key)
        .field("epoch", u.epoch)
        .field("entries_invalidated", u.entries_invalidated)
        .field("gc_evicted", u.gc_evicted)
        .field("gc_evicted_epoch", u.gc_evicted_epoch);
    if (!u.applied)
        w.field("error", u.error);
    w.endObject();
    enqueueRaw(line + '\n');
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      registry_(std::make_shared<tel::MetricsRegistry>())
{
    if (!config_.trace_log.empty()) {
        TraceLogConfig tc;
        tc.path = config_.trace_log;
        tc.max_bytes = config_.trace_max_bytes;
        tc.slow_ms = config_.slow_ms;
        trace_ = std::make_shared<TraceLog>(tc);
    }
    if (!config_.artifact_dir.empty()) {
        ArtifactGcConfig gc_config;
        gc_config.capacity_bytes = config_.gc_capacity_bytes;
        gc_config.max_age = config_.gc_max_age;
        gc_config.keep_epochs = config_.gc_keep_epochs;
        gc_ = std::make_shared<ArtifactGc>(config_.artifact_dir,
                                           gc_config, registry_);
    }
    CompileServiceConfig sc;
    sc.num_workers = config_.workers;
    sc.cache.capacity = config_.cache_capacity;
    sc.cache.artifact_dir = config_.artifact_dir;
    sc.cache.gc = gc_;
    sc.metrics = registry_;
    sc.trace = trace_;
    service_ = std::make_unique<CompileService>(sc);
    if (gc_ && config_.gc_interval.count() > 0)
        gc_->start(config_.gc_interval);

    CalibrationHubConfig hc;
    hc.watch_dir = config_.watch_calib_dir;
    hc.watch_interval = config_.watch_calib_interval;
    // One knob governs both invalidation tiers: keep the newest K
    // calibration epochs on disk (ArtifactGc) and in memory (the
    // hub's sweep on each roll).
    hc.keep_epochs = config_.gc_keep_epochs;
    hc.metrics = registry_;
    hub_ = std::make_unique<CalibrationHub>(hc, &service_->cache(),
                                            gc_.get());
    hub_->startWatch();

    if (!config_.metrics_listen.empty()) {
        SocketTransportConfig mc;
        mc.listen = config_.metrics_listen;
        // A scraper that stalls mid-request must not pin the accept
        // loop forever.
        mc.idle_timeout = std::chrono::milliseconds(5000);
        metrics_transport_ = std::make_unique<SocketTransport>(mc);
        metrics_thread_ = std::thread([this] { metricsLoop(); });
    }
}

Server::~Server()
{
    if (metrics_transport_)
        metrics_transport_->shutdown();
    if (metrics_thread_.joinable())
        metrics_thread_.join();
    hub_->stopWatch();
    if (gc_)
        gc_->stop();
    service_->shutdown(true);
}

int
Server::metricsPort() const
{
    return metrics_transport_ ? metrics_transport_->port() : 0;
}

std::string
Server::renderPrometheus()
{
    // Gauges are computed on read: metrics() refreshes queue depth,
    // uptime and worker count in the registry, and cache().stats()
    // (called inside metrics()) refreshes the occupancy gauges.  The
    // hub's counters are live in the registry already.
    (void)service_->metrics();
    return registry_->renderPrometheus();
}

void
Server::metricsLoop()
{
    // Scrapes are short one-shot exchanges; serving them serially on
    // the accept thread keeps the endpoint to one thread total.
    while (auto conn = metrics_transport_->accept())
        serveMetricsConnection(*conn);
}

void
Server::serveMetricsConnection(Connection &conn)
{
    const auto sendResponse = [&conn](const std::string &status,
                                      const std::string &content_type,
                                      const std::string &body) {
        std::ostringstream os;
        os << "HTTP/1.1 " << status << "\r\n"
           << "Content-Type: " << content_type << "\r\n"
           << "Content-Length: " << body.size() << "\r\n"
           << "Connection: close\r\n\r\n"
           << body;
        conn.write(os.str());
    };
    // Request line: "GET <path> HTTP/1.x".  readLine strips the
    // trailing CR on socket connections.
    std::string line;
    if (!conn.readLine(line))
        return;
    std::istringstream request(line);
    std::string method, path, version;
    request >> method >> path >> version;
    // Drain the headers so the response is not racing unread input.
    while (conn.readLine(line) && !line.empty()) {
    }
    if (method != "GET") {
        sendResponse("405 Method Not Allowed", "text/plain",
                     "method not allowed\n");
        return;
    }
    if (path != "/metrics" && path != "/metrics/") {
        sendResponse("404 Not Found", "text/plain", "not found\n");
        return;
    }
    sendResponse("200 OK",
                 "text/plain; version=0.0.4; charset=utf-8",
                 renderPrometheus());
}

bool
Server::runSession(Connection &conn)
{
    Session session(*this, conn);
    return session.run();
}

graph::Topology
Server::topologyFor(const JsonObject &obj, int default_qubits)
{
    // Each dimension is range-checked before the int64 -> int
    // narrowing, and rows x cols before anything is built (a heavy-hex
    // cell holds several qubits, so that also bounds the build).
    const auto dim = [&obj](const char *key, int64_t fallback) {
        const auto v = obj.has(key) ? obj.getInt(key) : fallback;
        if (!v || *v < 1 || *v > kMaxDeviceQubits)
            fatal(std::string("bad '") + key + "' (integer in [1, " +
                  std::to_string(kMaxDeviceQubits) + "])");
        return int(*v);
    };
    const auto area = [](int rows, int cols) {
        if (int64_t(rows) * cols > kMaxDeviceQubits)
            fatal("bad 'rows' x 'cols' (at most " +
                  std::to_string(kMaxDeviceQubits) + " qubits)");
    };
    const std::string kind = obj.getString("topology").value_or("grid");
    graph::Topology topo;
    if (kind == "grid" || kind == "trigrid") {
        auto [r, c] = dev::Device::gridDimsForQubits(default_qubits);
        const int rows = dim("rows", r);
        const int cols = dim("cols", c);
        area(rows, cols);
        topo = kind == "grid"
                   ? graph::gridTopology(rows, cols)
                   : graph::triangulatedGridTopology(rows, cols);
    } else if (kind == "heavyhex") {
        const int rows = dim("rows", 1);
        const int cols = dim("cols", 1);
        area(rows, cols);
        topo = graph::heavyHexTopology(rows, cols);
    } else if (kind == "line") {
        topo = graph::lineTopology(dim("size", default_qubits));
    } else if (kind == "ring") {
        topo = graph::ringTopology(dim("size", default_qubits));
    } else {
        fatal("unknown topology '" + kind +
              "' (one of: grid, line, ring, heavyhex, trigrid)");
    }
    if (topo.g.numVertices() > kMaxDeviceQubits)
        fatal("device of " + std::to_string(topo.g.numVertices()) +
              " qubits (at most " + std::to_string(kMaxDeviceQubits) +
              ")");
    return topo;
}

std::shared_ptr<const dev::Device>
Server::deviceFor(const JsonObject &obj, int circuit_qubits)
{
    const uint64_t device_seed = seedField(obj, "device_seed", 7);
    constexpr int64_t kMaxEpoch = 4096;
    const int64_t calib_epoch = obj.getInt("calib_epoch").value_or(0);
    if (calib_epoch < 0 || calib_epoch > kMaxEpoch)
        fatal("bad 'calib_epoch' (integer in [0, " +
              std::to_string(kMaxEpoch) + "])");

    graph::Topology topo = topologyFor(obj, circuit_qubits);

    // Requests that do not pin an explicit calib_epoch follow the
    // live calibration plane: a pushed generation (CalibrationHub)
    // supersedes the implicit boot snapshot.  An explicit calib_epoch
    // keeps the deterministic sampled-then-drifted chain below, so
    // pinned replays stay bit-for-bit reproducible across pushes.
    if (!obj.has("calib_epoch")) {
        if (auto live = hub_->liveDevice(topo.name, device_seed))
            return live;
    }

    const std::string key = topo.name + "#" +
                            std::to_string(device_seed) + "@" +
                            std::to_string(calib_epoch);
    // One mutex over lookup and construction: sessions racing on a
    // cold key would otherwise build the same device twice, and
    // construction is cheap next to a compile.
    std::lock_guard<std::mutex> lock(devices_mu_);
    auto it = devices_.find(key);
    if (it != devices_.end())
        return it->second;
    // Epoch e = the base snapshot recalibrated e times, each
    // drift step deterministically seeded, so every client asking
    // for (topology, device_seed, epoch) sees the same device —
    // and the same fingerprint.
    Rng rng(device_seed);
    dev::Calibration calib =
        dev::Calibration::sampled(topo, dev::DeviceParams{}, rng);
    for (int64_t e = 0; e < calib_epoch; ++e) {
        Rng drift_rng(device_seed ^ (uint64_t(e) + 1));
        calib = calib.drifted({}, drift_rng);
    }
    auto device = std::make_shared<const dev::Device>(std::move(topo),
                                                      std::move(calib));
    devices_.emplace(key, device);
    return device;
}

namespace {

/** serve()'s SIGTERM/SIGINT handler target: the only async-signal-
 *  safe thing to do is write one byte to a pipe the watcher thread
 *  reads. */
std::atomic<int> g_term_pipe_wr{-1};

void
onTerminateSignal(int)
{
    const int fd = g_term_pipe_wr.load();
    if (fd >= 0) {
        const char byte = 1;
        [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
    }
}

} // namespace

int
Server::serve(Transport &transport)
{
    int sig_pipe[2] = {-1, -1};
    if (::pipe2(sig_pipe, O_CLOEXEC) != 0)
        fatal("Server: pipe2(): " + std::string(std::strerror(errno)));
    g_term_pipe_wr.store(sig_pipe[1]);
    struct sigaction sa
    {
    };
    sa.sa_handler = &onTerminateSignal;
    ::sigemptyset(&sa.sa_mask);
    struct sigaction old_term
    {
    };
    struct sigaction old_int
    {
    };
    ::sigaction(SIGTERM, &sa, &old_term);
    ::sigaction(SIGINT, &sa, &old_int);

    // The watcher turns a signal byte into a transport shutdown; the
    // accept loop then winds down exactly like a client-driven stop:
    // no new sessions, in-flight sessions and queued compiles finish.
    std::thread watcher([&transport, &sig_pipe] {
        char byte = 0;
        for (;;) {
            const ssize_t n = ::read(sig_pipe[0], &byte, 1);
            if (n < 0 && errno == EINTR)
                continue;
            break;
        }
        if (byte == 1)
            transport.shutdown();
    });

    std::vector<std::thread> sessions;
    while (auto conn = transport.accept()) {
        sessions.emplace_back(
            [this, c = std::shared_ptr<Connection>(std::move(conn))] {
                Session(*this, *c).run();
            });
    }
    for (std::thread &session : sessions)
        session.join();

    g_term_pipe_wr.store(-1);
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGINT, &old_int, nullptr);
    {
        // A zero byte stops the watcher without a transport shutdown
        // (it already happened or was never needed).
        const char byte = 0;
        [[maybe_unused]] const ssize_t n = ::write(sig_pipe[1], &byte, 1);
    }
    watcher.join();
    ::close(sig_pipe[0]);
    ::close(sig_pipe[1]);

    service_->shutdown(true);
    return 0;
}

} // namespace qzz::svc
