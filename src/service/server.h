/**
 * @file
 * The JSON-lines serving front-end over CompileService, split from
 * the transport it speaks over.
 *
 *   Transport (transport.h)          Server (this file)
 *   ----------------------           ---------------------------
 *   accept() -> Connection  --->     one Session per connection
 *                                      |-- reader: parse, validate,
 *                                      |   submit to the shared
 *                                      |   CompileService
 *                                      |-- writer thread: stream
 *                                          responses in request order
 *
 * Server::serve() is the daemon loop: it accepts sessions until the
 * transport shuts down (each on its own thread), installs a SIGTERM
 * handler that drains gracefully — stop accepting, finish every
 * in-flight session and queued compile, then exit — and finally
 * drains the service.  All sessions share one CompileService (worker
 * pool + program cache + artifact tier), one device memo, and one
 * ArtifactGc, so N connections hitting the same fingerprints coalesce
 * and share warm state exactly like one pipelined stdio client.
 *
 * Session is public on purpose: tests drive it directly over a
 * StreamConnection pair of stringstreams, asserting the wire protocol
 * (docs/protocol.md) without sockets or a child process.  The
 * protocol itself is unchanged from the original stdio daemon —
 * byte-identical responses for identical stdio input — plus two
 * additive verbs: {"cmd":"hello"} (capability handshake) and
 * {"cmd":"gc"} (run an artifact-tier GC pass).
 *
 * Observability (docs/observability.md): the server owns one shared
 * tel::MetricsRegistry that the service, cache, GC and hub all report
 * into, an optional TraceLog every request's span tree is written to,
 * and an optional second listener serving GET /metrics in Prometheus
 * text exposition format ({"cmd":"metrics"} keeps its JSON shape and
 * gains a {"format":"prometheus"} variant).
 */

#ifndef QZZ_SERVICE_SERVER_H
#define QZZ_SERVICE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/telemetry.h"
#include "device/device.h"
#include "service/compile_service.h"
#include "service/trace.h"
#include "service/transport.h"

namespace qzz::svc {

class ArtifactGc;
class CalibrationHub;
class JsonObject;

/** Wire-protocol version reported by {"cmd":"hello"}; bumped when a
 *  response field changes meaning (new fields are additive and do
 *  not bump it). */
inline constexpr int kProtocolVersion = 1;

/** Most qubits a device built from a request or calibrate line may
 *  hold (4x the largest circuit a request may ask for). */
inline constexpr int kMaxDeviceQubits = 1024;

/** Server construction knobs (the compile_server flag surface). */
struct ServerConfig
{
    /** CompileService worker threads; 0 = all cores. */
    int workers = 0;
    /** Program-cache entry capacity. */
    size_t cache_capacity = 256;
    /** On-disk artifact tier directory; empty disables it. */
    std::string artifact_dir;
    /** Waveform sample spacing (ns) in response schedule JSON; 0
     *  omits samples. */
    double sample_dt = 0.0;
    /** Artifact-tier byte bound (0 = unbounded); enforced by GC on
     *  the write path and on {"cmd":"gc"}. */
    uint64_t gc_capacity_bytes = 0;
    /** Artifact max age (0 = no age bound). */
    std::chrono::milliseconds gc_max_age{0};
    /** Keep only the newest K calibration epochs (0 = all). */
    int gc_keep_epochs = 0;
    /** Background GC pass interval (0 = no background thread). */
    std::chrono::milliseconds gc_interval{0};
    /** Directory the CalibrationHub polls for
     *  "<topology>@<seed>.qzzcalib" snapshot files; empty disables
     *  the watcher (the {"cmd":"calibrate"} verb always works). */
    std::string watch_calib_dir;
    /** Calibration watcher poll period. */
    std::chrono::milliseconds watch_calib_interval{250};
    /** Prometheus scrape listener spec ("tcp:PORT" or
     *  "tcp:HOST:PORT"; "tcp:0" lets the kernel pick — see
     *  metricsPort()).  Empty disables the endpoint.  The listener
     *  serves GET /metrics in text exposition format 0.0.4 and
     *  should stay on a trusted interface (docs/observability.md). */
    std::string metrics_listen;
    /** Trace-span JSONL log path; empty disables tracing. */
    std::string trace_log;
    /** Trace log size bound: the file rotates to "<path>.1" before
     *  exceeding this many bytes (0 = never rotate). */
    uint64_t trace_max_bytes = 64ull << 20;
    /** Log a one-line summary of any request whose root span is
     *  slower than this many milliseconds; 0 disables. */
    double slow_ms = 0.0;
};

class Server;

/** One client session: reads requests off a Connection, submits them
 *  to the shared service, and streams responses back in request
 *  order via a dedicated writer thread. */
class Session
{
  public:
    Session(Server &server, Connection &conn);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Serve until EOF, a dead connection, or {"cmd":"quit"}; true
     *  iff quit ended it. */
    bool run();

  private:
    /** A submitted request waiting for its response slot. */
    struct Pending
    {
        std::string id;
        std::string label;
        RequestHandle handle;
    };

    /** One queued output line: a pending response, an inline error,
     *  or a fully-rendered raw line (control responses and pushed
     *  event frames).  Every byte the session emits flows through
     *  this queue, so the writer thread is the single writer on the
     *  connection and async calib_epoch events can never interleave
     *  with a response mid-line. */
    struct OutItem
    {
        bool is_error = false;
        bool is_raw = false;
        Pending pending;     ///< valid when !is_error && !is_raw
        std::string id;      ///< valid when is_error
        std::string message; ///< valid when is_error
        std::string raw;     ///< valid when is_raw
    };

    static std::string requestId(const JsonObject &obj, uint64_t lineno);
    void handleRequest(const JsonObject &obj, uint64_t lineno);

    void writerLoop();
    void enqueue(OutItem item);
    void enqueueError(const std::string &id, const std::string &message);
    /** Queue one complete output line (newline included) verbatim —
     *  safe from any thread; the CalibrationHub event sink uses it. */
    void enqueueRaw(std::string line);
    /** Block until every queued response has been written. */
    void waitForWriterIdle();
    void stopWriter();
    /** Drop the hub subscription; after this no event sink can touch
     *  this session (must precede stopWriter on every exit path). */
    void unsubscribeHub();

    void respond(const Pending &pending, const ServiceResult &result);
    void printError(const std::string &id, const std::string &message);
    void respondMetrics(const JsonObject &obj);
    void respondHello(const JsonObject &obj);
    void respondGc();
    void respondCalibrate(const JsonObject &obj);

    Server &server_;
    Connection &conn_;

    /** Nonzero once this session subscribed to calib_epoch events
     *  via {"cmd":"hello","calib_events":true}. */
    uint64_t hub_token_ = 0;
    bool subscribed_ = false;

    std::mutex out_mu_;
    std::condition_variable out_cv_;
    std::condition_variable idle_cv_;
    std::deque<OutItem> out_;
    bool out_done_ = false;
    bool writer_busy_ = false;
    std::thread writer_;
};

/** The daemon: shared serving state plus the accept loop. */
class Server
{
  public:
    explicit Server(ServerConfig config = {});
    /** Stops background GC and drains the service. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Accept sessions from @p transport until it shuts down, then
     * join every session thread and drain the service.  SIGTERM (and
     * SIGINT) trigger exactly that shutdown — a graceful drain, not
     * an abort.  Returns a process exit code.
     */
    int serve(Transport &transport);

    /** Run one session synchronously on this thread (the stdio path
     *  uses serve(); tests call this directly).  True iff the client
     *  sent {"cmd":"quit"}. */
    bool runSession(Connection &conn);

    /**
     * Resolve the device a request object names, memoized on
     * (topology, device_seed, calib_epoch) and shared across every
     * session.  Thread-safe.  Throws UserError on bad parameters.
     */
    std::shared_ptr<const dev::Device> deviceFor(const JsonObject &obj,
                                                 int circuit_qubits);

    /**
     * Build the topology a request object names ("topology" plus
     * rows/cols/size, defaulting dimensions from @p default_qubits).
     * The topology half of deviceFor(), shared with the calibrate
     * verb.  Throws UserError, naming the field, on a dimension
     * outside [1, kMaxDeviceQubits] or a device of more than
     * kMaxDeviceQubits qubits.
     */
    graph::Topology topologyFor(const JsonObject &obj,
                                int default_qubits);

    CompileService &service() { return *service_; }
    /** Null when no artifact dir is configured. */
    ArtifactGc *gc() { return gc_.get(); }
    /** The live calibration plane (always constructed). */
    CalibrationHub &hub() { return *hub_; }
    const ServerConfig &config() const { return config_; }

    /** The process-wide instrument registry every subsystem of this
     *  server reports into. */
    tel::MetricsRegistry &metricsRegistry() { return *registry_; }
    /** Null when trace_log is empty. */
    TraceLog *traceLog() { return trace_.get(); }
    /** Bound port of the metrics listener (resolves "tcp:0"); 0 when
     *  the endpoint is disabled. */
    int metricsPort() const;

    /**
     * Refresh every gauge that is computed on read (service uptime
     * and queue depth, cache occupancy) and render the full registry
     * in Prometheus text exposition format 0.0.4.  This is the body
     * both GET /metrics and {"cmd":"metrics","format":"prometheus"}
     * serve.  Thread-safe.
     */
    std::string renderPrometheus();

  private:
    void metricsLoop();
    /** Serve one HTTP/1.1 exchange on an accepted scrape connection. */
    void serveMetricsConnection(Connection &conn);

    ServerConfig config_;
    std::shared_ptr<tel::MetricsRegistry> registry_;
    std::shared_ptr<TraceLog> trace_;
    std::shared_ptr<ArtifactGc> gc_;
    std::unique_ptr<CompileService> service_;
    /** Declared after service_/gc_: the hub (and its watch thread)
     *  is destroyed first, while the cache and GC it points at are
     *  still alive. */
    std::unique_ptr<CalibrationHub> hub_;

    /** The scrape listener and its accept thread (metrics_listen). */
    std::unique_ptr<SocketTransport> metrics_transport_;
    std::thread metrics_thread_;

    std::mutex devices_mu_;
    std::unordered_map<std::string, std::shared_ptr<const dev::Device>>
        devices_;
};

} // namespace qzz::svc

#endif // QZZ_SERVICE_SERVER_H
