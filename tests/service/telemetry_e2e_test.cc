/**
 * @file
 * End-to-end telemetry tests: one request over a unix-domain socket
 * with a client-supplied trace_id must produce (a) the echoed
 * trace_id in the response, (b) a complete span tree in the JSONL
 * trace log — queue wait, cache probe, every compiler pass, artifact
 * write, respond — with correct parent/child edges, and (c) matching
 * counter increments scraped from the GET /metrics endpoint.  Plus
 * the {"cmd":"metrics","format":"prometheus"} verb and the
 * histogram-derived latency percentiles' monotonicity at the service
 * level.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "circuit/benchmarks.h"
#include "graph/topologies.h"
#include "service/compile_service.h"
#include "service/server.h"
#include "service/transport.h"

namespace qzz::svc {
namespace {

namespace fs = std::filesystem;

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

int
connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectTcp(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(uint16_t(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
sendAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        const ssize_t n =
            ::send(fd, data.data() + off, data.size() - off, 0);
        if (n <= 0)
            return false;
        off += size_t(n);
    }
    return true;
}

/** Read one '\n'-terminated line; empty string on EOF. */
std::string
recvLine(int fd)
{
    std::string line;
    char c = 0;
    while (::recv(fd, &c, 1, 0) == 1) {
        if (c == '\n')
            return line;
        line += c;
    }
    return line;
}

/** Read until EOF (the scrape endpoint closes after one exchange). */
std::string
recvAll(int fd)
{
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
        out.append(buf, size_t(n));
    return out;
}

/** One full HTTP exchange against the metrics listener. */
std::string
httpGet(int port, const std::string &path)
{
    const int fd = connectTcp(port);
    if (fd < 0)
        return "";
    sendAll(fd, "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n"
                "Connection: close\r\n\r\n");
    const std::string response = recvAll(fd);
    ::close(fd);
    return response;
}

/** The fields of one trace span record this test cares about,
 *  extracted by substring (span records nest attrs, which the
 *  flat-only JsonObject parser rejects by design). */
struct SpanRecord
{
    std::string trace_id;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;
    std::string name;
};

std::string
extractString(const std::string &line, const std::string &field)
{
    const std::string marker = "\"" + field + "\":\"";
    const auto pos = line.find(marker);
    if (pos == std::string::npos)
        return "";
    const auto start = pos + marker.size();
    return line.substr(start, line.find('"', start) - start);
}

uint64_t
extractUint(const std::string &line, const std::string &field)
{
    const std::string marker = "\"" + field + "\":";
    const auto pos = line.find(marker);
    if (pos == std::string::npos)
        return 0;
    return std::stoull(line.substr(pos + marker.size()));
}

std::vector<SpanRecord>
readSpans(const std::string &path)
{
    std::ifstream in(path);
    std::vector<SpanRecord> out;
    std::string line;
    while (std::getline(in, line)) {
        SpanRecord span;
        span.trace_id = extractString(line, "trace_id");
        span.span_id = extractUint(line, "span_id");
        span.parent_id = extractUint(line, "parent_id");
        span.name = extractString(line, "name");
        out.push_back(span);
    }
    return out;
}

class TelemetryE2eTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = (fs::temp_directory_path() /
                ("qzz_telemetry_e2e_" +
                 std::to_string(
                     ::testing::UnitTest::GetInstance()->random_seed()) +
                 "_" + ::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::string dir_;
};

TEST_F(TelemetryE2eTest, TraceIdSpanTreeAndScrapeAgree)
{
    const std::string socket_path = dir_ + "/server.sock";
    const std::string trace_path = dir_ + "/trace.jsonl";

    ServerConfig config;
    config.workers = 2;
    config.artifact_dir = dir_ + "/artifacts";
    config.trace_log = trace_path;
    config.metrics_listen = "tcp:127.0.0.1:0";
    Server server(config);
    ASSERT_GT(server.metricsPort(), 0);
    ASSERT_NE(server.traceLog(), nullptr);

    SocketTransportConfig tc;
    tc.listen = "unix:" + socket_path;
    SocketTransport transport(tc);
    std::thread serving([&] { server.serve(transport); });

    // One compile request carrying a client-supplied trace id.
    const std::string trace_id = "cafe1234cafe1234cafe1234cafe1234";
    const int fd = connectUnix(socket_path);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, "{\"id\":\"r1\",\"benchmark\":\"QFT\","
                            "\"qubits\":3,\"trace_id\":\"" +
                                trace_id + "\"}\n{\"cmd\":\"quit\"}\n"));
    const std::string response = recvLine(fd);
    EXPECT_EQ(recvLine(fd), ""); // quit closed the session
    ::close(fd);

    // (a) The response echoes the client's trace id.
    EXPECT_TRUE(startsWith(response, "{\"id\":\"r1\",\"ok\":true,"))
        << response;
    EXPECT_NE(response.find("\"trace_id\":\"" + trace_id + "\""),
              std::string::npos)
        << response;

    // (b) The trace log holds the complete span tree for that id:
    // request -> {queue_wait, cache_probe, compile -> {route, lower,
    // schedule}, artifact_write, respond}.  The session has
    // fully drained (EOF above), so every span is flushed.
    std::map<std::string, SpanRecord> by_name;
    for (const SpanRecord &span : readSpans(trace_path)) {
        EXPECT_EQ(span.trace_id, trace_id) << span.name;
        EXPECT_NE(span.span_id, 0u) << span.name;
        by_name[span.name] = span;
    }
    ASSERT_TRUE(by_name.count("request"));
    const SpanRecord &root = by_name["request"];
    EXPECT_EQ(root.parent_id, 0u);
    for (const char *child :
         {"queue_wait", "cache_probe", "artifact_write", "respond"}) {
        ASSERT_TRUE(by_name.count(child)) << child;
        EXPECT_EQ(by_name[child].parent_id, root.span_id) << child;
    }
    ASSERT_TRUE(by_name.count("compile"));
    const SpanRecord &compile = by_name["compile"];
    EXPECT_EQ(compile.parent_id, root.span_id);
    for (const char *pass : {"route", "lower", "schedule"}) {
        ASSERT_TRUE(by_name.count(pass)) << pass;
        EXPECT_EQ(by_name[pass].parent_id, compile.span_id) << pass;
    }
    EXPECT_EQ(by_name.size(), 9u); // nothing unexpected in the tree

    // (c) GET /metrics sees the same single request in its counters.
    const std::string scrape =
        httpGet(server.metricsPort(), "/metrics");
    EXPECT_TRUE(startsWith(scrape, "HTTP/1.1 200 OK\r\n")) << scrape;
    EXPECT_NE(scrape.find("Content-Type: text/plain; version=0.0.4; "
                          "charset=utf-8\r\n"),
              std::string::npos)
        << scrape;
    for (const char *sample :
         {"qzz_service_requests_submitted_total 1",
          "qzz_service_requests_completed_total 1",
          "qzz_service_request_latency_ms_count 1",
          "qzz_service_cache_probe_misses_total 1",
          // 2, not 1: the cold path probes once before compiling and
          // re-checks under the coalesce lock.
          "qzz_cache_misses_total 2", "qzz_cache_insertions_total 1",
          "qzz_cache_disk_writes_total 1", "qzz_service_workers 2"}) {
        EXPECT_NE(scrape.find(std::string(sample) + "\n"),
                  std::string::npos)
            << sample << "\n"
            << scrape;
    }

    // Unknown paths get a 404, not a scrape payload.
    EXPECT_TRUE(startsWith(httpGet(server.metricsPort(), "/nope"),
                           "HTTP/1.1 404 Not Found\r\n"));

    transport.shutdown();
    serving.join();
}

TEST_F(TelemetryE2eTest, MetricsVerbServesPrometheusFormat)
{
    ServerConfig config;
    config.workers = 2;
    Server server(config);
    std::istringstream in(
        "{\"id\":\"a\",\"benchmark\":\"QFT\",\"qubits\":3}\n"
        "{\"cmd\":\"metrics\",\"format\":\"prometheus\"}\n"
        "{\"cmd\":\"metrics\"}\n"
        "{\"cmd\":\"quit\"}\n");
    std::ostringstream out;
    StreamConnection conn(in, out);
    EXPECT_TRUE(server.runSession(conn));

    std::vector<std::string> lines;
    {
        std::istringstream split(out.str());
        std::string line;
        while (std::getline(split, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 3u);
    // The exposition body rides as one escaped JSON string field; the
    // JSON metrics verb is byte-compatible with what it always was.
    EXPECT_TRUE(startsWith(lines[1],
                           "{\"metrics\":true,\"format\":"
                           "\"prometheus\",\"exposition\":\"# HELP "))
        << lines[1];
    EXPECT_NE(lines[1].find("qzz_service_requests_submitted_total 1\\n"),
              std::string::npos)
        << lines[1];
    EXPECT_NE(lines[1].find("# TYPE qzz_service_request_latency_ms "
                            "histogram\\n"),
              std::string::npos)
        << lines[1];
    EXPECT_TRUE(startsWith(lines[2], "{\"metrics\":true,\"submitted\":1,"))
        << lines[2];
}

TEST_F(TelemetryE2eTest, ResponsesCarryMintedTraceIdWithoutTracing)
{
    // No trace log configured: responses still carry a (minted)
    // trace id for client-side correlation, and no span file appears.
    ServerConfig config;
    config.workers = 1;
    Server server(config);
    std::istringstream in(
        "{\"id\":\"a\",\"benchmark\":\"QFT\",\"qubits\":3}\n"
        "{\"cmd\":\"quit\"}\n");
    std::ostringstream out;
    StreamConnection conn(in, out);
    EXPECT_TRUE(server.runSession(conn));
    const std::string line = out.str();
    const auto pos = line.find("\"trace_id\":\"");
    ASSERT_NE(pos, std::string::npos) << line;
    const std::string id = line.substr(pos + 12, 32);
    EXPECT_EQ(id.find_first_not_of("0123456789abcdef"),
              std::string::npos)
        << id;
}

// The regression the telemetry plane fixes at the service level: the
// old ring-reservoir percentile estimator could report p50 > p95
// under skewed load.  The histogram-derived percentiles come from one
// snapshot and are monotone by construction.
TEST_F(TelemetryE2eTest, ServicePercentilesAreMonotone)
{
    CompileServiceConfig config;
    config.num_workers = 2;
    CompileService service(config);
    Rng rng(2);
    const auto device = std::make_shared<const dev::Device>(
        graph::gridTopology(2, 3), dev::DeviceParams{}, rng);

    // A skewed latency mix: a few cold compiles of distinct circuits,
    // then a burst of near-instant cache hits against the first.
    std::vector<RequestHandle> handles;
    for (int i = 0; i < 4; ++i) {
        CompileRequest request;
        request.circuit =
            *ckt::namedBenchmark("QFT", 3, uint64_t(i + 1));
        request.device = device;
        request.request.seed = uint64_t(i + 1);
        handles.push_back(service.submit(std::move(request)));
    }
    for (RequestHandle &h : handles)
        EXPECT_TRUE(h.get().ok());
    for (int i = 0; i < 40; ++i) {
        CompileRequest request;
        request.circuit = *ckt::namedBenchmark("QFT", 3, 1);
        request.device = device;
        request.request.seed = 1;
        EXPECT_TRUE(service.submit(std::move(request)).get().ok());
    }

    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.submitted, 44u);
    EXPECT_GT(m.latency_p50_ms, 0.0);
    EXPECT_LE(m.latency_p50_ms, m.latency_p95_ms);
    EXPECT_LE(m.latency_p95_ms, m.latency_p99_ms);
    service.shutdown(true);
}

} // namespace
} // namespace qzz::svc
