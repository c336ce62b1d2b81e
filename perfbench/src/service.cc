/**
 * @file
 * The service workloads against the real compile_server daemon.
 *
 * One load-generator process (this one) spawns the daemon with
 * --listen on a unix socket and --workers 4, then drives it from
 * kConnections closed-loop client threads, each keeping kWindow
 * request lines in flight on its own connection.  Latency is the
 * time from writing a line to reading its whole response line.
 * Setup (spawn, pulse-library load, device tables, prewarm) is timed
 * on its own, several times, and never enters a latency sample.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "perfbench.h"
#include "qzz.h"

namespace perfbench {

namespace {

constexpr const char *kSocket = "daemon.sock";
/** Connect + prewarm bound: a pulse re-optimization or a hung
 *  daemon fails the run instead of stretching it. */
constexpr double kSetupLimitS = 60.0;
/** Equal windows each repetition's timed phase is cut into. */
constexpr size_t kWindowsPerRep = 4;

// ---------------------------------------------------------------------------
// The daemon process and client connections
// ---------------------------------------------------------------------------

/** A spawned compile_server; SIGTERM + reap on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const DaemonSettings &settings,
           const std::string &artifact_dir)
    {
        std::filesystem::remove(kSocket);
        std::vector<std::string> args = {
            binary,
            "--listen",
            std::string("unix:") + kSocket,
            "--workers",
            std::to_string(kWorkers),
            "--cache-capacity",
            std::to_string(settings.cache_capacity),
        };
        if (settings.artifact_dir) {
            args.push_back("--artifact-dir");
            args.push_back(artifact_dir);
            args.push_back("--gc-capacity-bytes");
            args.push_back(std::to_string(settings.gc_capacity_bytes));
        }
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            const int devnull = open("/dev/null", O_RDWR);
            const int log =
                open("daemon.log", O_WRONLY | O_CREAT | O_APPEND, 0644);
            dup2(devnull, 0);
            dup2(devnull, 1);
            dup2(log >= 0 ? log : devnull, 2);
            execv(argv[0], argv.data());
            _exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int pid() const { return pid_; }

    /** True while the child has not exited. */
    bool
    alive()
    {
        if (pid_ <= 0)
            return false;
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return false;
        }
        return true;
    }

    /** Graceful drain (SIGTERM), escalating to SIGKILL after 20 s. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        kill(pid_, SIGTERM);
        const auto give_up = Clock::now() + std::chrono::seconds(20);
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (Clock::now() > give_up) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid_ = -1;
    }

  private:
    int pid_ = -1;
};

/** Blocking client side of one daemon connection. */
class Client
{
  public:
    /** Connect, retrying while the daemon starts. */
    Client(Daemon &daemon, Clock::time_point give_up)
    {
        for (;;) {
            fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd_ < 0)
                throw std::runtime_error("socket() failed");
            sockaddr_un addr = {};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, kSocket, sizeof addr.sun_path - 1);
            if (connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr) == 0)
                return;
            close(fd_);
            fd_ = -1;
            if (!daemon.alive())
                throw std::runtime_error(
                    "compile_server exited during startup (see "
                    "daemon.log)");
            if (Clock::now() > give_up)
                throw std::runtime_error("compile_server did not listen");
            std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
    }

    ~Client()
    {
        if (fd_ >= 0)
            close(fd_);
    }

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    void
    send(const std::string &data)
    {
        size_t off = 0;
        while (off < data.size()) {
            const ssize_t n =
                ::send(fd_, data.data() + off, data.size() - off,
                       MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon connection closed on "
                                         "write");
            off += size_t(n);
        }
    }

    /** Next response line without its newline; throws on EOF. */
    std::string
    readLine()
    {
        for (;;) {
            const size_t nl = buf_.find('\n', scan_);
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                scan_ = 0;
                return line;
            }
            scan_ = buf_.size();
            char chunk[1 << 16];
            const ssize_t n = ::read(fd_, chunk, sizeof chunk);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw std::runtime_error("daemon connection closed on "
                                         "read");
            buf_.append(chunk, size_t(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
    size_t scan_ = 0;
};

// ---------------------------------------------------------------------------
// Response parsing
// ---------------------------------------------------------------------------

std::string
stringField(const std::string &line, const std::string &key)
{
    const std::string pat = "\"" + key + "\":\"";
    const auto at = line.find(pat);
    if (at == std::string::npos)
        return "";
    const auto start = at + pat.size();
    const auto end = line.find('"', start);
    return end == std::string::npos ? "" : line.substr(start, end - start);
}

/** The "program" document of a response (it is the last field). */
std::string_view
programOf(const std::string &line)
{
    const std::string pat = ",\"program\":";
    const auto at = line.find(pat);
    if (at == std::string::npos || line.empty() || line.back() != '}')
        return {};
    const auto start = at + pat.size();
    return std::string_view(line).substr(start, line.size() - 1 - start);
}

double
numberIn(std::string_view doc, const std::string &key)
{
    const std::string pat = "\"" + key + "\":";
    const auto at = doc.find(pat);
    if (at == std::string_view::npos)
        return -1.0;
    return std::strtod(std::string(doc.substr(at + pat.size(), 32)).c_str(),
                       nullptr);
}

/** What the load generator keeps of one timed response. */
struct Completion
{
    size_t index = 0;
    /** The repetition (daemon instance) that served it. */
    int rep = 0;
    /** Completion time from the start of its timed phase (s). */
    double at_s = 0.0;
    double latency_ms = 0.0;
    double bytes = 0.0;
    bool ok = false;
    std::string outcome;
    std::string fingerprint;
    double schedule_ns = -1.0;
    bool program_matches = true; ///< repeats only
    bool id_matches = true;
};

/** Rendered programs of the prewarm responses, by shape index. */
struct Prewarmed
{
    std::vector<std::string> programs;
    std::vector<std::string> fingerprints;
};

/** Send every prewarm line on @p client and read their responses. */
Prewarmed
prewarm(Client &client, const ServiceTraffic &traffic,
        std::vector<std::string> &errors)
{
    std::string batch;
    for (size_t i = 0; i < traffic.prewarm.size(); ++i)
        batch += traffic.prewarm[i].line("w" + std::to_string(i)) + "\n";
    client.send(batch);
    Prewarmed p;
    for (size_t i = 0; i < traffic.prewarm.size(); ++i) {
        const std::string line = client.readLine();
        if (line.find("\"ok\":true") == std::string::npos)
            errors.push_back("prewarm line " + std::to_string(i) +
                             " failed: " + line.substr(0, 300));
        p.programs.emplace_back(programOf(line));
        p.fingerprints.push_back(stringField(line, "fingerprint"));
    }
    return p;
}

/** The daemon's Prometheus exposition, via the in-band metrics verb. */
std::string
scrape(Client &client)
{
    client.send("{\"cmd\":\"metrics\",\"format\":\"prometheus\"}\n");
    const std::string line = client.readLine();
    const std::string pat = "\"exposition\":\"";
    const auto at = line.find(pat);
    if (at == std::string::npos)
        throw std::runtime_error("metrics verb gave no exposition");
    // Undo the JSON string escapes the exposition travels in.
    std::string out;
    for (size_t i = at + pat.size(); i < line.size(); ++i) {
        const char c = line[i];
        if (c == '"')
            break;
        if (c == '\\' && i + 1 < line.size()) {
            const char e = line[++i];
            out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
        } else {
            out += c;
        }
    }
    return out;
}

/** The cache and service counters of one daemon scrape. */
CacheCounts
readCounters(Client &client)
{
    const std::string expo = scrape(client);
    CacheCounts c;
    c.hits = promValue(expo, "qzz_cache_hits_total");
    c.disk_hits = promValue(expo, "qzz_cache_disk_hits_total");
    c.misses = promValue(expo, "qzz_cache_misses_total");
    c.evictions = promValue(expo, "qzz_cache_evictions_total");
    c.disk_writes = promValue(expo, "qzz_cache_disk_writes_total");
    c.coalesced = promValue(expo, "qzz_service_requests_coalesced_total");
    return c;
}

/** Recompute each shape's fingerprint in-process with
 *  svc::fingerprintRequest, on up to kConnections threads. */
std::vector<std::string>
expectedFingerprints(const std::vector<const RequestShape *> &shapes)
{
    qzz::svc::ServerConfig config;
    config.workers = 1;
    qzz::svc::Server server(config);
    std::vector<std::string> out(shapes.size());
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t j; (j = next.fetch_add(1)) < shapes.size();) {
            const RequestShape &s = *shapes[j];
            const auto obj = qzz::svc::JsonObject::parse(s.line("x"));
            auto circuit =
                qzz::ckt::namedBenchmark(s.family, s.qubits, s.seed);
            const auto device = server.deviceFor(*obj, s.qubits);
            qzz::core::CompileOptions options;
            options.pulse = *qzz::core::pulseMethodFromName(s.pulse);
            options.sched = *qzz::core::schedPolicyFromName(s.sched);
            out[j] = qzz::svc::fingerprintRequest(*circuit, *device,
                                                  options)
                         .hex();
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kConnections; ++t)
        threads.emplace_back(work);
    for (auto &t : threads)
        t.join();
    return out;
}

std::string
artifactDir(int rep)
{
    return "artifacts." + std::to_string(rep);
}

/** A prewarmed daemon with its connections, and how long the setup
 *  took (spawn to the last prewarm response). */
struct Setup
{
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Client>> clients;
    Prewarmed prewarmed;
    double seconds = 0.0;
};

Setup
setUp(const RunOptions &opt, const ServiceTraffic &traffic, int rep,
      std::vector<std::string> &errors)
{
    const DaemonSettings settings = daemonSettings(opt.workload);
    // A fresh artifact directory per setup, so every setup compiles
    // its prewarm set instead of finding the previous one's files.
    const std::string artifacts = artifactDir(rep);
    std::filesystem::remove_all(artifacts);
    Setup s;
    SetupWatchdog watchdog(kSetupLimitS);
    const auto t0 = Clock::now();
    const auto give_up = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      kSetupLimitS));
    s.daemon = std::make_unique<Daemon>(opt.daemon, settings, artifacts);
    for (int c = 0; c < kConnections; ++c)
        s.clients.push_back(std::make_unique<Client>(*s.daemon, give_up));
    s.prewarmed = prewarm(*s.clients[0], traffic, errors);
    s.seconds = secondsBetween(t0, Clock::now());
    return s;
}

/** Run the closed-loop timed phase; fills @p done in any order. */
double
timedPhase(Setup &setup, const ServiceTraffic &traffic, double seconds,
           std::vector<Completion> &done, std::string &fatal)
{
    std::atomic<size_t> next{0};
    std::mutex done_mu;
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    Clock::time_point t0;
    std::atomic<int64_t> last_ns{0};
    std::mutex fatal_mu;

    auto client_loop = [&](int c) {
        Client &client = *setup.clients[size_t(c)];
        std::vector<Completion> local;
        struct Sent
        {
            size_t index;
            Clock::time_point at;
        };
        std::deque<Sent> inflight;
        ready.fetch_add(1);
        while (!go.load())
            std::this_thread::yield();
        const auto deadline =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
        try {
            auto send_next = [&] {
                const size_t i = next.fetch_add(1);
                if (i >= traffic.size())
                    throw std::runtime_error("request stream exhausted");
                const auto at = Clock::now();
                client.send(traffic.timed(i).line(std::to_string(i)) +
                            "\n");
                inflight.push_back({i, at});
            };
            for (int w = 0; w < kWindow; ++w)
                send_next();
            while (!inflight.empty()) {
                const std::string line = client.readLine();
                const auto now = Clock::now();
                const Sent sent = inflight.front();
                inflight.pop_front();
                if (now < deadline)
                    send_next();
                Completion r;
                r.index = sent.index;
                r.at_s = secondsBetween(t0, now);
                r.latency_ms = msBetween(sent.at, now);
                r.bytes = double(line.size() + 1);
                r.ok = line.find("\"ok\":true") != std::string::npos;
                r.outcome = stringField(line, "outcome");
                r.fingerprint = stringField(line, "fingerprint");
                r.id_matches =
                    stringField(line, "id") == std::to_string(sent.index);
                const std::string_view program = programOf(line);
                r.schedule_ns = numberIn(program, "execution_time_ns");
                const int k = traffic.repeat(sent.index);
                if (k >= 0)
                    r.program_matches =
                        program == setup.prewarmed.programs[size_t(k)];
                local.push_back(std::move(r));
                const int64_t ns =
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        now - t0)
                        .count();
                int64_t prev = last_ns.load();
                while (ns > prev && !last_ns.compare_exchange_weak(prev, ns))
                    ;
            }
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(fatal_mu);
            fatal = e.what();
        }
        std::lock_guard<std::mutex> lock(done_mu);
        for (auto &r : local)
            done.push_back(std::move(r));
    };

    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c)
        threads.emplace_back(client_loop, c);
    while (ready.load() < kConnections)
        std::this_thread::yield();
    t0 = Clock::now();
    go.store(true);
    for (auto &t : threads)
        t.join();
    return double(last_ns.load()) / 1e9;
}

} // namespace

RunResult
runService(const RunOptions &opt)
{
    RunResult res;
    // Room for far more lines than any run consumes; running out
    // fails the run rather than repeating lines.
    const ServiceTraffic traffic = makeTraffic(
        opt.workload, opt.seed, trafficCapacity(opt.workload, opt.seconds));

    // With tracing on, the daemon phase and the replay share the
    // run's time; the daemon phase still gives trace.gap_ms its base.
    const double daemon_seconds = opt.trace ? opt.seconds * 0.4 : opt.seconds;

    // Repetitions: each spawns a fresh daemon (its setup is one
    // setup_s sample), prewarms it and drives the same prefix of the
    // stream for an equal share of the time.  Fresh daemons sample
    // the host's scheduling anew; one run is not one draw.
    const double rep_seconds = daemon_seconds / double(kSetups);
    std::vector<double> setups, rss;
    std::vector<Completion> done;
    CacheCounts delta;
    double wall = 0.0, stolen = 0.0;
    Prewarmed prewarmed;
    for (int rep = 0; rep < kSetups; ++rep) {
        Setup live = setUp(opt, traffic, rep, res.errors);
        setups.push_back(live.seconds);
        if (rep == 0)
            prewarmed = live.prewarmed;
        else if (live.prewarmed.programs != prewarmed.programs)
            res.errors.push_back("prewarm programs differ between daemon "
                                 "instances");
        const CacheCounts before = readCounters(*live.clients[0]);
        std::vector<Completion> part;
        std::string fatal;
        const double steal0 = stolenSeconds();
        wall += timedPhase(live, traffic, rep_seconds, part, fatal);
        stolen += stolenSeconds() - steal0;
        if (!fatal.empty())
            res.errors.push_back("timed phase: " + fatal);
        delta = delta.plus(readCounters(*live.clients[0]).minus(before));
        rss.push_back(pidPeakRssMb(live.daemon->pid()));
        live.clients.clear();
        live.daemon->stop();
        // Deleted before the kernel writes them back: a run's artifact
        // traffic must not load the disk under the runs that follow.
        std::filesystem::remove_all(artifactDir(rep));
        for (auto &r : part) {
            r.rep = rep;
            done.push_back(std::move(r));
        }
    }
    const double peak_rss = median(rss);

    // Output checks: ok, request order, fingerprint, and for repeats
    // a program byte-identical to the prewarm's cold compile.
    std::sort(done.begin(), done.end(),
              [](const Completion &a, const Completion &b) {
                  return a.index < b.index;
              });
    // Each distinct line's fingerprint, recomputed in-process.
    std::vector<size_t> fresh_lines;
    for (const auto &r : done)
        if (traffic.repeat(r.index) < 0)
            fresh_lines.push_back(r.index);
    std::sort(fresh_lines.begin(), fresh_lines.end());
    fresh_lines.erase(std::unique(fresh_lines.begin(), fresh_lines.end()),
                      fresh_lines.end());
    std::vector<const RequestShape *> shapes;
    for (const auto &s : traffic.prewarm)
        shapes.push_back(&s);
    for (size_t i : fresh_lines)
        shapes.push_back(&traffic.timed(i));
    const std::vector<std::string> expected = expectedFingerprints(shapes);
    for (size_t k = 0; k < traffic.prewarm.size(); ++k)
        if (prewarmed.fingerprints[k] != expected[k])
            res.errors.push_back("prewarm line " + std::to_string(k) +
                                 ": fingerprint " +
                                 prewarmed.fingerprints[k] +
                                 " != " + expected[k]);
    auto expectedFor = [&](size_t index) -> const std::string & {
        const int k = traffic.repeat(index);
        if (k >= 0)
            return expected[size_t(k)];
        const auto at = std::lower_bound(fresh_lines.begin(),
                                         fresh_lines.end(), index);
        return expected[traffic.prewarm.size() +
                        size_t(at - fresh_lines.begin())];
    };
    std::vector<double> latencies;
    std::set<std::string> programs_seen;
    double schedule_sum = 0.0, bytes_sum = 0.0;
    size_t compiled = 0, hits = 0;
    res.attempted = done.size();
    for (const auto &r : done) {
        const int k = traffic.repeat(r.index);
        const std::string &want = expectedFor(r.index);
        std::string problem;
        if (!r.ok)
            problem = "response not ok";
        else if (!r.id_matches)
            problem = "response out of order";
        else if (r.fingerprint != want)
            problem = "fingerprint " + r.fingerprint + " != " + want;
        else if (!r.program_matches)
            problem = "hit program differs from the cold compile";
        else if (k < 0 && r.outcome != "Compiled")
            problem = "fresh line answered as " + r.outcome;
        else if (r.schedule_ns <= 0.0)
            problem = "no execution_time_ns";
        if (!problem.empty()) {
            ++res.failed;
            if (res.errors.size() < 10)
                res.errors.push_back("line " + std::to_string(r.index) +
                                     ": " + problem);
            continue;
        }
        latencies.push_back(r.latency_ms);
        bytes_sum += r.bytes;
        compiled += r.outcome == "Compiled";
        hits += r.outcome == "CacheHit";
        if (programs_seen.insert(r.fingerprint).second)
            schedule_sum += r.schedule_ns;
    }

    // Workload self-checks: each workload still exercises its layer.
    const std::string check = selfCheck(opt.workload, delta);
    if (!check.empty())
        res.errors.push_back(check);
    if (opt.workload == "warm" && hits != res.attempted)
        res.errors.push_back("warm: a timed response was not a hit");
    if (res.attempted == 0)
        res.errors.push_back("no request completed");

    // Throughput and latency quantiles per equal window of the timed
    // phase, reported as the median over windows: a burst of load
    // from a neighbour on a shared host moves one window, not the
    // result.  The drain after the last window is not counted.
    const size_t n_windows = kWindowsPerRep * size_t(kSetups);
    std::vector<std::vector<double>> window_lat(n_windows);
    for (const auto &r : done) {
        const size_t w = size_t(r.at_s / rep_seconds * kWindowsPerRep);
        if (w < kWindowsPerRep)
            window_lat[size_t(r.rep) * kWindowsPerRep + w].push_back(
                r.latency_ms);
    }
    std::vector<double> rates, p50s, p90s;
    for (const auto &lats : window_lat) {
        const Summary s = summarize(lats);
        rates.push_back(double(s.n) / (rep_seconds / kWindowsPerRep));
        p50s.push_back(s.p50);
        p90s.push_back(s.p90);
    }
    const Summary lat = summarize(latencies);
    const double ok = double(latencies.size());
    res.metrics["req_per_s"] = {median(rates), "req/s"};
    res.metrics["latency_p50_ms"] = {median(p50s), "ms"};
    res.metrics["latency_p90_ms"] = {median(p90s), "ms"};
    res.detail["req_per_s.whole_run"] =
        wall > 0.0 ? double(res.attempted) / wall : 0.0;
    res.detail["latency.p50_ms.whole_run"] = lat.p50;
    res.detail["latency.p90_ms.whole_run"] = lat.p90;
    res.detail["windows"] = double(n_windows);
    res.detail["window.req_per_s.min"] =
        *std::min_element(rates.begin(), rates.end());
    res.detail["window.req_per_s.max"] =
        *std::max_element(rates.begin(), rates.end());
    res.metrics["setup_s"] = {median(setups), "s"};
    res.metrics["peak_rss_mb"] = {peak_rss, "MiB"};
    res.metrics["schedule_ns"] = {
        programs_seen.empty() ? 0.0
                              : schedule_sum / double(programs_seen.size()),
        "ns"};
    res.detail["latency.n"] = double(lat.n);
    res.detail["latency.max_ms"] = lat.max;
    res.detail["latency.mean_ms"] = lat.mean;
    res.detail["timed_wall_s"] = wall;
    res.detail["host.steal_share"] =
        wall > 0 ? stolen / (wall * std::thread::hardware_concurrency())
                 : 0.0;
    res.detail["response_kb"] = ok > 0 ? bytes_sum / ok / 1024.0 : 0.0;
    res.detail["error_rate"] =
        res.attempted ? double(res.failed) / double(res.attempted) : 1.0;
    res.detail["distinct_programs"] = double(programs_seen.size());
    res.detail["outcome.compiled"] = double(compiled);
    res.detail["outcome.cache_hit"] = double(hits);
    res.detail["daemon.cache_hits"] = delta.hits;
    res.detail["daemon.disk_hits"] = delta.disk_hits;
    res.detail["daemon.misses"] = delta.misses;
    res.detail["daemon.evictions"] = delta.evictions;
    res.detail["daemon.disk_writes"] = delta.disk_writes;
    res.detail["daemon.coalesced"] = delta.coalesced;
    res.detail["setup.n"] = double(setups.size());
    res.detail["setup.max_s"] = *std::max_element(setups.begin(),
                                                  setups.end());

    if (opt.trace) {
        ReplayReport replay = runReplay(opt, opt.seconds * 0.6);
        const double daemon_p50 = res.metrics["latency_p50_ms"].value;
        res.metrics = std::move(replay.metrics);
        res.metrics["response_kb"] = {res.detail["response_kb"], "KiB"};
        res.metrics["trace.gap_ms"] = {daemon_p50 - replay.wall_p50_ms,
                                       "ms"};
        for (auto &[k, v] : replay.detail)
            res.detail["replay." + k] = v;
        for (auto &e : replay.errors)
            res.errors.push_back("replay: " + e);
        res.attempted += replay.attempted;
        res.failed += replay.failed;
    }
    return res;
}

} // namespace perfbench
