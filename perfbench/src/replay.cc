/**
 * @file
 * The traced replay: per-layer numbers for a service workload.
 *
 * The replay feeds the workload's generated request lines through the
 * same public functions svc::Session calls, in the same order, on an
 * in-process svc::Server built with the daemon's settings:
 *
 *   reader (one per session)            writer (one per session)
 *   ------------------------            ------------------------
 *   JsonObject::parse       jsonl       RequestHandle::get  service
 *   ckt::namedBenchmark     circuit     writeCompiledProgramJson
 *   Server::deviceFor       server                          render
 *   canonicalGateOrder      fingerprint Connection::write   transport
 *   fingerprintOrdered...   fingerprint
 *   CompileService::submit  service
 *
 * Each reader/writer pair keeps kWindow requests in flight, like one
 * closed-loop client connection of the daemon run, and the writer
 * writes to a real unix-socket Connection drained by this process.
 * Spans live in this process's memory; nothing under src/ is timed
 * by the replay.  The layers behind CompileService::submit report
 * the durations ServiceResult and CompileDiagnostics already carry
 * (queue wait, cache probe, compile and its passes, artifact write).
 * The fingerprint layer is called here explicitly (the service
 * repeats that work inside submit); its result is also the expected
 * fingerprint of the output check.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <poll.h>
#include <set>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "perfbench.h"
#include "qzz.h"

namespace perfbench {

namespace {

using namespace qzz;

/** Every span of one replayed request (ms). */
struct RequestTrace
{
    size_t index = 0;
    double parse = 0, gen = 0, device = 0, canon = 0, hash = 0;
    double submit = 0, service = 0;
    double queue = 0, probe = 0, compile = 0, artifact_write = 0;
    double route = 0, lower = 0, schedule = 0, pulses = 0;
    double render = 0, render_bytes = 0, write = 0, wall = 0;
    int swaps = 0, layers = 0;
    bool compiled = false, hit = false;
    /** In the memory tier just before submit (disk-hit detection). */
    bool resident = false;
    std::string fingerprint;
};

/** Settings of one replay pass. */
struct PassConfig
{
    int workers = kWorkers;
    bool spans = true;
    /** Stop taking new lines after this long ... */
    double seconds = 1.0;
    /** ... or after this many lines (0 = no line bound). */
    size_t max_lines = 0;
    /** Working directory of the pass (socket, artifacts). */
    std::string dir;
};

/** What one pass produced. */
struct PassResult
{
    std::vector<RequestTrace> traces; ///< by line index
    double wall_s = 0.0;
    CacheCounts counts;
    double submitted = 0, warm_boosted = 0;
    std::vector<std::string> errors;
    uint64_t failed = 0;
    std::string artifact_dir;
};

/** A request built from one line, not yet submitted. */
struct Built
{
    svc::CompileRequest request;
    svc::Fingerprint fingerprint;
    std::string id;
    std::string label;
};

/** Times a span when spans are on; a no-op otherwise. */
class Span
{
  public:
    explicit Span(bool on) : on_(on)
    {
        if (on_)
            t_ = Clock::now();
    }
    /** Milliseconds since construction or the previous lap. */
    double
    lap()
    {
        if (!on_)
            return 0.0;
        const auto now = Clock::now();
        const double ms = msBetween(t_, now);
        t_ = now;
        return ms;
    }

  private:
    bool on_;
    Clock::time_point t_;
};

/** Session::handleRequest's steps for one line, each a span. */
Built
buildRequest(svc::Server &server, const std::string &line, bool spans,
             RequestTrace &tr)
{
    Span span(spans);
    std::string error;
    const auto obj = svc::JsonObject::parse(line, &error);
    if (!obj)
        throw std::runtime_error("replay parse error: " + error);
    const std::string family = obj->getString("benchmark").value_or("");
    const int qubits = int(obj->getInt("qubits").value_or(0));
    const uint64_t seed = uint64_t(obj->getInt("seed").value_or(1));
    Built b;
    b.id = obj->getString("id").value_or("");
    b.request.options.pulse =
        core::pulseMethodFromName(obj->getString("pulse").value_or(""))
            .value();
    b.request.options.sched =
        core::schedPolicyFromName(obj->getString("sched").value_or(""))
            .value();
    b.request.request.seed = seed;
    tr.parse = span.lap();

    auto circuit = ckt::namedBenchmark(family, qubits, seed);
    if (!circuit)
        throw std::runtime_error("unknown benchmark " + family);
    tr.gen = span.lap();

    b.request.device = server.deviceFor(*obj, qubits);
    tr.device = span.lap();

    const ckt::QuantumCircuit canonical = svc::canonicalGateOrder(*circuit);
    tr.canon = span.lap();

    b.fingerprint = svc::composeRequestFingerprint(
        svc::fingerprintOrderedCircuit(canonical),
        svc::fingerprintDevice(*b.request.device),
        svc::fingerprintOptions(b.request.options));
    tr.hash = span.lap();

    b.label = circuit->name();
    b.request.circuit = std::move(*circuit);
    return b;
}

/** Session::respond's rendering: the response line and, through
 *  @p program, its program document. */
std::string
renderResponse(const Built &b, const svc::ServiceResult &result,
               std::string &program)
{
    std::ostringstream os;
    os.precision(12);
    os << "{\"id\":\"" << svc::jsonEscape(b.id)
       << "\",\"ok\":" << (result.ok() ? "true" : "false")
       << ",\"outcome\":\"" << svc::outcomeName(result.outcome)
       << "\",\"benchmark\":\"" << svc::jsonEscape(b.label)
       << "\",\"fingerprint\":\"" << result.fingerprint.hex()
       << "\",\"cache_hit\":"
       << (result.outcome == svc::Outcome::CacheHit ? "true" : "false")
       << ",\"queue_ms\":" << result.queue_ms
       << ",\"compile_ms\":" << result.compile_ms << ",\"trace_id\":\""
       << svc::jsonEscape(result.trace_id) << "\"";
    program.clear();
    if (result.ok()) {
        std::ostringstream doc;
        core::ScheduleIoOptions io;
        io.pretty = false;
        core::writeCompiledProgramJson(*result.program, doc, io);
        program = doc.str();
        while (!program.empty() && program.back() == '\n')
            program.pop_back();
        os << ",\"program\":" << program;
    }
    os << "}\n";
    return os.str();
}

/** The client ends of the replay's socket sessions, drained on one
 *  thread (the replay's stand-in for the remote clients). */
class Drain
{
  public:
    explicit Drain(std::vector<int> fds) : fds_(std::move(fds))
    {
        thread_ = std::thread([this] { loop(); });
    }
    ~Drain()
    {
        stop_.store(true);
        thread_.join();
        for (int fd : fds_)
            close(fd);
    }
    Drain(const Drain &) = delete;
    Drain &operator=(const Drain &) = delete;

  private:
    void
    loop()
    {
        std::vector<char> buf(1 << 16);
        std::vector<pollfd> polls;
        for (int fd : fds_)
            polls.push_back({fd, POLLIN, 0});
        while (!stop_.load()) {
            if (poll(polls.data(), polls.size(), 20) <= 0)
                continue;
            for (auto &p : polls)
                if (p.revents & (POLLIN | POLLHUP))
                    if (::read(p.fd, buf.data(), buf.size()) <= 0)
                        p.fd = -1;
        }
    }

    std::vector<int> fds_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

int
connectUnix(const std::string &path)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (fd < 0 || connect(fd, reinterpret_cast<sockaddr *>(&addr),
                          sizeof addr) != 0)
        throw std::runtime_error("replay: cannot connect " + path);
    return fd;
}

/** One queued request of a session: built, submitted, awaiting its
 *  turn at the writer. */
struct Pending
{
    bool end = false;
    Built built;
    svc::RequestHandle handle;
    RequestTrace trace;
    Clock::time_point start;
    Clock::time_point submitted;
};

/** The rendered programs of the prewarm set, by shape index. */
std::vector<std::string>
prewarmReplay(svc::Server &server, const ServiceTraffic &traffic)
{
    std::vector<Built> built;
    std::vector<svc::RequestHandle> handles;
    for (size_t i = 0; i < traffic.prewarm.size(); ++i) {
        RequestTrace unused;
        built.push_back(buildRequest(
            server, traffic.prewarm[i].line("w" + std::to_string(i)),
            false, unused));
        handles.push_back(
            server.service().submit(std::move(built.back().request)));
    }
    std::vector<std::string> programs;
    for (size_t i = 0; i < handles.size(); ++i) {
        const svc::ServiceResult r = handles[i].get();
        if (!r.ok())
            throw std::runtime_error("replay prewarm compile failed");
        std::string program;
        renderResponse(built[i], r, program);
        programs.push_back(std::move(program));
    }
    return programs;
}

PassResult
runPass(const RunOptions &opt, const ServiceTraffic &traffic,
        const PassConfig &cfg)
{
    PassResult out;
    std::filesystem::remove_all(cfg.dir);
    std::filesystem::create_directories(cfg.dir);
    const DaemonSettings settings = daemonSettings(opt.workload);
    svc::ServerConfig sc;
    sc.workers = cfg.workers;
    sc.cache_capacity = settings.cache_capacity;
    if (settings.artifact_dir) {
        out.artifact_dir = cfg.dir + "/artifacts";
        sc.artifact_dir = out.artifact_dir;
        sc.gc_capacity_bytes = settings.gc_capacity_bytes;
    }
    svc::Server server(sc);

    svc::SocketTransportConfig tc;
    tc.listen = "unix:" + cfg.dir + "/replay.sock";
    svc::SocketTransport transport(tc);
    std::vector<int> client_fds;
    std::vector<std::unique_ptr<svc::Connection>> conns;
    for (int c = 0; c < kConnections; ++c) {
        client_fds.push_back(connectUnix(cfg.dir + "/replay.sock"));
        conns.push_back(transport.accept());
    }
    Drain drain(client_fds);

    const std::vector<std::string> reference =
        prewarmReplay(server, traffic);
    const svc::ProgramCacheStats cache0 = server.service().cache().stats();
    const svc::MetricsSnapshot svc0 = server.service().metrics();

    std::atomic<size_t> next{0};
    std::atomic<bool> go{false};
    std::atomic<int> ready{0};
    Clock::time_point t0;
    std::mutex out_mu;
    std::string fatal;

    auto session = [&](int c) {
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Pending> queue;
        int inflight = 0;
        std::vector<RequestTrace> local;
        std::vector<std::string> errors;
        uint64_t failed = 0;
        Clock::time_point last_end;

        std::thread writer([&] {
            for (;;) {
                Pending p;
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return !queue.empty(); });
                    p = std::move(queue.front());
                    queue.pop_front();
                }
                if (p.end)
                    return;
                RequestTrace &tr = p.trace;
                const svc::ServiceResult result = p.handle.get();
                Span span(cfg.spans);
                if (cfg.spans)
                    tr.service = msBetween(p.submitted, Clock::now());
                std::string program;
                const std::string payload =
                    renderResponse(p.built, result, program);
                tr.render = span.lap();
                conns[size_t(c)]->write(payload);
                tr.write = span.lap();
                const auto end = Clock::now();
                if (cfg.spans)
                    tr.wall = msBetween(p.start, end);
                last_end = end;

                tr.render_bytes = double(payload.size());
                tr.queue = result.queue_ms;
                tr.probe = result.cache_probe_ms;
                tr.compile = result.compile_ms;
                tr.artifact_write = result.artifact_write_ms;
                for (const auto &st : result.diagnostics.stages) {
                    if (st.stage == "route")
                        tr.route = st.wall_ms;
                    else if (st.stage == "lower")
                        tr.lower = st.wall_ms;
                    else if (st.stage == "schedule")
                        tr.schedule = st.wall_ms;
                    else if (st.stage == "pulses")
                        tr.pulses = st.wall_ms;
                }
                tr.swaps = result.diagnostics.swaps_inserted;
                tr.layers = result.diagnostics.physical_layers;
                tr.compiled = result.outcome == svc::Outcome::Compiled;
                tr.hit = result.outcome == svc::Outcome::CacheHit;
                tr.fingerprint = p.built.fingerprint.hex();

                const int k = traffic.repeat(tr.index);
                std::string problem;
                if (!result.ok())
                    problem = "not ok: " + result.status.message;
                else if (!(result.fingerprint == p.built.fingerprint))
                    problem = "fingerprint differs from fingerprintRequest";
                else if (k >= 0 && program != reference[size_t(k)])
                    problem = "hit program differs from the cold compile";
                else if (k < 0 && !tr.compiled)
                    problem = "fresh line answered as " +
                              svc::outcomeName(result.outcome);
                if (!problem.empty()) {
                    ++failed;
                    if (errors.size() < 5)
                        errors.push_back("line " +
                                         std::to_string(tr.index) + ": " +
                                         problem);
                }
                local.push_back(std::move(tr));
                {
                    std::lock_guard<std::mutex> lock(mu);
                    --inflight;
                }
                cv.notify_all();
            }
        });

        ready.fetch_add(1);
        while (!go.load())
            std::this_thread::yield();
        const auto deadline =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(cfg.seconds));
        try {
            for (;;) {
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return inflight < kWindow; });
                }
                if (Clock::now() >= deadline)
                    break;
                const size_t i = next.fetch_add(1);
                if (cfg.max_lines != 0 && i >= cfg.max_lines)
                    break;
                if (i >= traffic.size())
                    throw std::runtime_error("request stream exhausted");
                Pending p;
                p.start = Clock::now();
                p.trace.index = i;
                p.built = buildRequest(
                    server, traffic.timed(i).line(std::to_string(i)),
                    cfg.spans, p.trace);
                p.trace.resident =
                    server.service().cache().contains(p.built.fingerprint);
                Span span(cfg.spans);
                p.built.request.request.trace_id =
                    svc::TraceLog::mintTraceId();
                p.handle =
                    server.service().submit(std::move(p.built.request));
                p.trace.submit = span.lap();
                p.submitted = Clock::now();
                {
                    std::lock_guard<std::mutex> lock(mu);
                    ++inflight;
                    queue.push_back(std::move(p));
                }
                cv.notify_all();
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(out_mu);
            fatal = e.what();
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            Pending end;
            end.end = true;
            queue.push_back(std::move(end));
        }
        cv.notify_all();
        writer.join();

        std::lock_guard<std::mutex> lock(out_mu);
        for (auto &t : local)
            out.traces.push_back(std::move(t));
        for (auto &e : errors)
            out.errors.push_back(std::move(e));
        out.failed += failed;
        if (!local.empty() || last_end > t0)
            out.wall_s = std::max(out.wall_s, secondsBetween(t0, last_end));
    };

    std::vector<std::thread> sessions;
    for (int c = 0; c < kConnections; ++c)
        sessions.emplace_back(session, c);
    while (ready.load() < kConnections)
        std::this_thread::yield();
    t0 = Clock::now();
    go.store(true);
    for (auto &s : sessions)
        s.join();
    if (!fatal.empty())
        out.errors.push_back(fatal);

    const svc::ProgramCacheStats cache1 = server.service().cache().stats();
    const svc::MetricsSnapshot svc1 = server.service().metrics();
    out.counts.hits = double(cache1.hits - cache0.hits);
    out.counts.disk_hits = double(cache1.disk_hits - cache0.disk_hits);
    out.counts.misses = double(cache1.misses - cache0.misses);
    out.counts.evictions = double(cache1.evictions - cache0.evictions);
    out.counts.disk_writes = double(cache1.disk_writes - cache0.disk_writes);
    out.counts.coalesced = double(svc1.coalesced - svc0.coalesced);
    out.submitted = double(svc1.submitted - svc0.submitted);
    out.warm_boosted = double(svc1.warm_boosted - svc0.warm_boosted);
    std::sort(out.traces.begin(), out.traces.end(),
              [](const RequestTrace &a, const RequestTrace &b) {
                  return a.index < b.index;
              });
    conns.clear();
    return out;
}

/** Samples of one field over the traces that pass @p keep. */
template <typename Field, typename Keep>
std::vector<double>
collect(const std::vector<RequestTrace> &traces, Field field, Keep keep)
{
    std::vector<double> v;
    for (const auto &t : traces)
        if (keep(t))
            v.push_back(field(t));
    return v;
}

/** Time readProgramArtifact on the artifacts of requests that the
 *  disk tier answered (a hit that was not memory-resident). */
std::vector<double>
decodeTimes(const PassResult &pass, const ServiceTraffic &traffic)
{
    std::vector<double> ms;
    std::set<std::string> seen;
    for (const auto &t : pass.traces) {
        if (traffic.repeat(t.index) < 0 || !t.hit || t.resident ||
            !seen.insert(t.fingerprint).second || seen.size() > 64)
            continue;
        const std::string path =
            pass.artifact_dir + "/" + t.fingerprint + ".qzzprog";
        const auto t0 = Clock::now();
        std::ifstream in(path);
        if (!in)
            continue; // collected since; the GC may evict any file
        const auto program = svc::readProgramArtifact(in);
        const auto t1 = Clock::now();
        if (program)
            ms.push_back(msBetween(t0, t1));
    }
    return ms;
}

} // namespace

double
compilerSetupMs()
{
    Rng rng(7);
    const dev::Device device =
        dev::Device::gridForQubits(12, dev::DeviceParams{}, rng);
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
        core::clearPulseLibraryCache();
        const auto t0 = Clock::now();
        core::getPulseLibraryShared(core::PulseMethod::Gaussian);
        core::getPulseLibraryShared(core::PulseMethod::Pert);
        const core::Compiler compiler =
            core::CompilerBuilder(device)
                .pulseMethod(core::PulseMethod::Pert)
                .schedPolicy(core::SchedPolicy::Zzx)
                .build();
        ms.push_back(msBetween(t0, Clock::now()));
    }
    return median(ms);
}

ReplayReport
runReplay(const RunOptions &opt, double seconds)
{
    ReplayReport rep;
    const ServiceTraffic traffic = makeTraffic(
        opt.workload, opt.seed, trafficCapacity(opt.workload, opt.seconds));
    const double setup_ms = compilerSetupMs();

    // A: spans on, the daemon's concurrency.  B: the same lines with
    // spans off (trace.overhead).  C: one worker (contention_x).
    PassConfig a;
    a.seconds = seconds * 0.5;
    a.dir = "replay-a";
    PassResult on = runPass(opt, traffic, a);
    const size_t n = on.traces.size();

    PassConfig b;
    b.spans = false;
    b.seconds = 1e9;
    b.max_lines = n;
    b.dir = "replay-b";
    PassResult off = runPass(opt, traffic, b);

    PassConfig c;
    c.workers = 1;
    c.seconds = seconds * 0.25;
    c.max_lines = n;
    c.dir = "replay-c";
    PassResult single;
    const bool compiles = opt.workload != "warm";
    if (compiles)
        single = runPass(opt, traffic, c);

    for (const PassResult *p : {&on, &off, &single}) {
        for (const auto &e : p->errors)
            rep.errors.push_back(e);
        rep.attempted += p->traces.size();
        rep.failed += p->failed;
    }
    if (n == 0) {
        rep.errors.push_back("no request replayed");
        return rep;
    }

    const auto &tr = on.traces;
    auto all = [](const RequestTrace &) { return true; };
    auto compiled = [](const RequestTrace &t) { return t.compiled; };
    MetricMap &m = rep.metrics;
    auto put = [&](const std::string &name, std::vector<double> v,
                   double scale, const std::string &unit) {
        const Summary s = summarize(std::move(v));
        m[name] = {s.p50 * scale, unit};
        rep.detail[name + ".n"] = double(s.n);
        rep.detail[name + ".max"] = s.max * scale;
    };
    put("jsonl.parse_us", collect(tr, [](auto &t) { return t.parse; }, all),
        1e3, "us");
    put("circuit.gen_us", collect(tr, [](auto &t) { return t.gen; }, all),
        1e3, "us");
    put("server.device_us",
        collect(tr, [](auto &t) { return t.device; }, all), 1e3, "us");
    put("fingerprint.canon_us",
        collect(tr, [](auto &t) { return t.canon; }, all), 1e3, "us");
    put("fingerprint.hash_us",
        collect(tr, [](auto &t) { return t.hash; }, all), 1e3, "us");
    const Summary queue =
        summarize(collect(tr, [](auto &t) { return t.queue; }, all));
    m["service.queue_ms_p50"] = {queue.p50, "ms"};
    m["service.queue_ms_p90"] = {queue.p90, "ms"};
    rep.detail["service.queue_ms.n"] = double(queue.n);
    rep.detail["service.queue_ms.max"] = queue.max;
    m["service.warm_boosted_share"] = {
        on.submitted > 0 ? on.warm_boosted / on.submitted : 0.0, "share"};
    m["service.coalesced"] = {on.counts.coalesced, "count"};
    put("cache.probe_us", collect(tr, [](auto &t) { return t.probe; },
                                  [](auto &t) { return t.probe > 0; }),
        1e3, "us");
    const CacheCounts &cd = on.counts;
    const double lookups = cd.lookups();
    m["cache.mem_hit_share"] = {lookups > 0 ? cd.hits / lookups : 0,
                                "share"};
    m["cache.disk_hit_share"] = {lookups > 0 ? cd.disk_hits / lookups : 0,
                                 "share"};
    m["cache.evictions"] = {cd.evictions, "count"};
    const bool tiered = !on.artifact_dir.empty();
    put("artifact.write_ms",
        tiered ? collect(tr, [](auto &t) { return t.artifact_write; },
                         [](auto &t) {
                             return t.compiled && t.artifact_write > 0;
                         })
               : std::vector<double>{},
        1.0, "ms");
    put("artifact.decode_ms",
        tiered ? decodeTimes(on, traffic) : std::vector<double>{}, 1.0,
        "ms");
    put("compile.route_ms",
        collect(tr, [](auto &t) { return t.route; }, compiled), 1.0, "ms");
    put("compile.lower_ms",
        collect(tr, [](auto &t) { return t.lower; }, compiled), 1.0, "ms");
    put("compile.schedule_ms",
        collect(tr, [](auto &t) { return t.schedule; }, compiled), 1.0,
        "ms");
    put("compile.pulses_ms",
        collect(tr, [](auto &t) { return t.pulses; }, compiled), 1.0, "ms");
    // Same lines at 4 and at 1 worker: the slowdown of one compile
    // when four run at once.
    double contention = 0.0;
    if (compiles && !single.traces.empty()) {
        const size_t limit = single.traces.back().index;
        const double one = median(collect(
            single.traces, [](auto &t) { return t.compile; }, compiled));
        const double four = median(collect(
            tr, [](auto &t) { return t.compile; },
            [&](auto &t) { return t.compiled && t.index <= limit; }));
        contention = one > 0 ? four / one : 0.0;
        rep.detail["compile.contention_x.n"] = double(single.traces.size());
    }
    m["compile.contention_x"] = {contention, "x"};
    const Summary swaps = summarize(
        collect(tr, [](auto &t) { return double(t.swaps); }, compiled));
    const Summary layers = summarize(
        collect(tr, [](auto &t) { return double(t.layers); }, compiled));
    m["compile.swaps"] = {swaps.mean, "count"};
    m["compile.layers"] = {layers.mean, "count"};
    m["compile.setup_ms"] = {setup_ms, "ms"};
    put("render.ms", collect(tr, [](auto &t) { return t.render; }, all), 1.0,
        "ms");
    m["render.kb"] = {
        summarize(collect(tr, [](auto &t) { return t.render_bytes; }, all))
                .mean /
            1024.0,
        "KiB"};
    put("transport.write_us",
        collect(tr, [](auto &t) { return t.write; }, all), 1e3, "us");

    // Tracing accounting.
    const double on_rate = double(n) / on.wall_s;
    const double off_rate = double(off.traces.size()) / off.wall_s;
    m["trace.overhead"] = {off_rate / on_rate, "x"};
    double covered = 0.0, wall = 0.0;
    for (const auto &t : tr) {
        covered += t.parse + t.gen + t.device + t.canon + t.hash + t.submit +
                   t.queue + t.probe + t.compile + t.artifact_write +
                   t.render + t.write;
        wall += t.wall;
    }
    m["trace.coverage"] = {wall > 0 ? covered / wall : 0.0, "share"};
    const Summary walls =
        summarize(collect(tr, [](auto &t) { return t.wall; }, all));
    rep.wall_p50_ms = walls.p50;
    rep.detail["wall.n"] = double(walls.n);
    rep.detail["wall.p50_ms"] = walls.p50;
    rep.detail["wall.max_ms"] = walls.max;
    rep.detail["lines"] = double(n);
    rep.detail["req_per_s"] = on_rate;

    const std::string check = selfCheck(opt.workload, cd);
    if (!check.empty())
        rep.errors.push_back(check);
    // Before the kernel writes the artifacts back (see runService).
    for (const auto &dir : {a.dir, b.dir, c.dir})
        std::filesystem::remove_all(dir);
    return rep;
}

} // namespace perfbench
