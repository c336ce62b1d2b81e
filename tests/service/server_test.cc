/**
 * @file
 * Serving front-end tests: the Session wire protocol driven directly
 * over in-process streams (no sockets, no child process), plus
 * SocketTransport behavior — concurrent clients, per-session quit,
 * idle timeout, and the overlong-line bound.
 *
 * Error lines are asserted byte-exactly: they are the stdio daemon's
 * historical responses and must never drift.  Success lines embed
 * timings and a full program document, so those are checked by prefix
 * and field presence.  The hello response contains nested arrays,
 * which JsonObject (flat-only by design) cannot parse — hence the
 * substring checks.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.h"
#include "common/rng.h"
#include "device/calibration.h"
#include "graph/topologies.h"
#include "service/jsonl.h"
#include "service/server.h"
#include "service/transport.h"

namespace qzz::svc {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

/** Run one session over @p input against a fresh two-worker server
 *  and return (output lines, quit flag). */
std::pair<std::vector<std::string>, bool>
runTranscript(const std::string &input, ServerConfig config = {})
{
    if (config.workers == 0)
        config.workers = 2;
    Server server(config);
    std::istringstream in(input);
    std::ostringstream out;
    StreamConnection conn(in, out);
    const bool quit = server.runSession(conn);
    return {lines(out.str()), quit};
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

TEST(ServerSessionTest, ErrorLinesAreByteExact)
{
    const auto [out, quit] = runTranscript(
        "{\"id\":\"e1\",\"qubits\":3}\n"
        "{\"id\":\"e2\",\"benchmark\":\"QFT\"}\n"
        "{\"id\":\"e3\",\"benchmark\":\"QFT\",\"qubits\":1}\n"
        "{\"id\":\"e4\",\"benchmark\":\"nope\",\"qubits\":3}\n"
        "{\"id\":\"e5\",\"benchmark\":\"QFT\",\"qubits\":3,"
        "\"pulse\":\"nope\"}\n"
        "{\"id\":\"e6\",\"benchmark\":\"QFT\",\"qubits\":3,"
        "\"sched\":\"nope\"}\n"
        "{\"id\":\"e7\",\"benchmark\":\"QFT\",\"qubits\":3,"
        "\"topology\":\"torus\"}\n"
        "{\"cmd\":\"frobnicate\",\"id\":\"e8\"}\n");
    EXPECT_FALSE(quit); // EOF, not {"cmd":"quit"}
    ASSERT_EQ(out.size(), 8u);
    EXPECT_EQ(out[0],
              "{\"id\":\"e1\",\"ok\":false,\"error\":\"missing "
              "'benchmark' (one of: HS, QFT, QPE, QAOA, Ising, GRC, "
              "QV)\"}");
    EXPECT_EQ(out[1],
              "{\"id\":\"e2\",\"ok\":false,\"error\":\"missing or bad "
              "'qubits' (integer in [2, 256])\"}");
    EXPECT_EQ(out[2],
              "{\"id\":\"e3\",\"ok\":false,\"error\":\"missing or bad "
              "'qubits' (integer in [2, 256])\"}");
    EXPECT_EQ(out[3],
              "{\"id\":\"e4\",\"ok\":false,\"error\":\"unknown "
              "benchmark 'nope' (one of: HS, QFT, QPE, QAOA, Ising, "
              "GRC, QV)\"}");
    EXPECT_TRUE(startsWith(out[4],
                           "{\"id\":\"e5\",\"ok\":false,\"error\":"
                           "\"unknown pulse method 'nope' (one of: "))
        << out[4];
    EXPECT_TRUE(startsWith(out[5],
                           "{\"id\":\"e6\",\"ok\":false,\"error\":"
                           "\"unknown scheduling policy 'nope' (one "
                           "of: "))
        << out[5];
    EXPECT_EQ(out[6],
              "{\"id\":\"e7\",\"ok\":false,\"error\":\"unknown "
              "topology 'torus' (one of: grid, line, ring, heavyhex, "
              "trigrid)\"}");
    EXPECT_EQ(out[7],
              "{\"id\":\"e8\",\"ok\":false,\"error\":\"unknown cmd "
              "'frobnicate'\"}");
}

TEST(ServerSessionTest, DeadlineAndPriorityAreBoundedBeforeConversion)
{
    // 1e999 is out of double range (a parse error naming the field);
    // 1e17 ms would overflow the deadline's ms -> ns conversion and
    // 2^40 the int priority.  Each is an error line, not a request.
    const auto [out, quit] = runTranscript(
        "{\"id\":\"d1\",\"benchmark\":\"QFT\",\"qubits\":4,"
        "\"deadline_ms\":1e999}\n"
        "{\"id\":\"d2\",\"benchmark\":\"QFT\",\"qubits\":4,"
        "\"deadline_ms\":1e17}\n"
        "{\"id\":\"d3\",\"benchmark\":\"QFT\",\"qubits\":4,"
        "\"deadline_ms\":-1}\n"
        "{\"id\":\"p1\",\"benchmark\":\"QFT\",\"qubits\":4,"
        "\"priority\":1099511627776}\n"
        "{\"id\":\"p2\",\"benchmark\":\"QFT\",\"qubits\":4,"
        "\"priority\":\"high\"}\n");
    ASSERT_EQ(out.size(), 5u);
    EXPECT_EQ(out[0],
              "{\"id\":\"1\",\"ok\":false,\"error\":\"parse error: "
              "number out of range in 'deadline_ms' at byte offset 54\"}");
    const std::string bad_deadline =
        "\",\"ok\":false,\"error\":\"bad 'deadline_ms' (number in "
        "[0, 86400000])\"}";
    EXPECT_EQ(out[1], "{\"id\":\"d2" + bad_deadline);
    EXPECT_EQ(out[2], "{\"id\":\"d3" + bad_deadline);
    const std::string bad_priority =
        "\",\"ok\":false,\"error\":\"bad 'priority' (integer in int "
        "range)\"}";
    EXPECT_EQ(out[3], "{\"id\":\"p1" + bad_priority);
    EXPECT_EQ(out[4], "{\"id\":\"p2" + bad_priority);
}

TEST(ServerSessionTest, TopologyAndSeedFieldsAreBoundedBeforeConversion)
{
    // 2^32 + 2 rows would narrow to a 2-row grid, 256 x 256 would
    // build a 65 536-qubit device, and a negative seed would wrap to
    // a huge uint64: each is an error line naming the field.
    const auto request = [](const std::string &id,
                            const std::string &fields) {
        return "{\"id\":\"" + id +
               "\",\"benchmark\":\"QFT\",\"qubits\":4," + fields + "}\n";
    };
    Rng rng(3);
    const dev::Calibration line4 = dev::Calibration::sampled(
        graph::lineTopology(4), dev::DeviceParams{}, rng);
    const std::string snapshot =
        "{\"cmd\":\"calibrate\",\"snapshot\":\"" +
        jsonEscape(dev::calibrationJsonString(line4)) + "\"";
    const auto [out, quit] = runTranscript(
        request("r1", "\"rows\":4294967298") +
        request("r2", "\"rows\":256,\"cols\":256") +
        request("r3", "\"topology\":\"line\",\"size\":0") +
        request("r4", "\"topology\":\"ring\",\"size\":1025") +
        request("r5", "\"topology\":\"heavyhex\",\"rows\":32,\"cols\":32") +
        request("r6", "\"cols\":\"wide\"") +
        request("s1", "\"seed\":-1") + request("s2", "\"seed\":1.5") +
        request("s3", "\"device_seed\":-7") + snapshot +
        ",\"topology\":\"line\",\"size\":4,\"device_seed\":-1}\n" +
        snapshot + ",\"topology\":\"line\",\"size\":4294967300}\n");
    ASSERT_EQ(out.size(), 11u);
    const auto bad = [](const std::string &id, const std::string &error) {
        return "{\"id\":\"" + id + "\",\"ok\":false,\"error\":\"" + error +
               "\"}";
    };
    EXPECT_EQ(out[0], bad("r1", "bad 'rows' (integer in [1, 1024])"));
    EXPECT_EQ(out[1], bad("r2", "bad 'rows' x 'cols' (at most 1024 "
                                "qubits)"));
    EXPECT_EQ(out[2], bad("r3", "bad 'size' (integer in [1, 1024])"));
    EXPECT_EQ(out[3], bad("r4", "bad 'size' (integer in [1, 1024])"));
    EXPECT_TRUE(startsWith(out[4], "{\"id\":\"r5\",\"ok\":false,"
                                   "\"error\":\"device of "))
        << out[4];
    EXPECT_NE(out[4].find(" qubits (at most 1024)\"}"), std::string::npos)
        << out[4];
    EXPECT_EQ(out[5], bad("r6", "bad 'cols' (integer in [1, 1024])"));
    EXPECT_EQ(out[6], bad("s1", "bad 'seed' (non-negative integer)"));
    EXPECT_EQ(out[7], bad("s2", "bad 'seed' (non-negative integer)"));
    EXPECT_EQ(out[8],
              bad("s3", "bad 'device_seed' (non-negative integer)"));
    EXPECT_EQ(out[9], "{\"calibrate\":true,\"applied\":false,\"error\":"
                      "\"bad 'device_seed' (non-negative integer)\"}");
    EXPECT_EQ(out[10], "{\"calibrate\":true,\"applied\":false,\"error\":"
                       "\"bad 'size' (integer in [1, 1024])\"}");
}

TEST(ServerSessionTest, InRangeTopologyAndSeedFieldsAreServed)
{
    const auto [out, quit] = runTranscript(
        "{\"id\":\"a\",\"benchmark\":\"QFT\",\"qubits\":3,"
        "\"topology\":\"line\",\"size\":5,\"seed\":0,"
        "\"device_seed\":0}\n"
        "{\"id\":\"b\",\"benchmark\":\"QFT\",\"qubits\":3,"
        "\"topology\":\"heavyhex\",\"rows\":1,\"cols\":1}\n");
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(startsWith(out[0], "{\"id\":\"a\",\"ok\":true,"))
        << out[0];
    EXPECT_TRUE(startsWith(out[1], "{\"id\":\"b\",\"ok\":true,"))
        << out[1];
}

TEST(ServerSessionTest, InRangeDeadlineAndPriorityAreServed)
{
    const auto [out, quit] = runTranscript(
        "{\"id\":\"a\",\"benchmark\":\"QFT\",\"qubits\":3,"
        "\"deadline_ms\":86400000,\"priority\":-2147483648}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(startsWith(out[0], "{\"id\":\"a\",\"ok\":true,"))
        << out[0];
}

TEST(ServerSessionTest, ParseErrorsUseLineNumberIds)
{
    const auto [out, quit] = runTranscript("\n"
                                           "   \n"
                                           "this is not json\n");
    ASSERT_EQ(out.size(), 1u);
    // Blank lines are skipped but still counted: the bad line is #3.
    EXPECT_TRUE(startsWith(
        out[0], "{\"id\":\"3\",\"ok\":false,\"error\":\"parse error: "))
        << out[0];
}

TEST(ServerSessionTest, CompileThenCacheHitInRequestOrder)
{
    // The metrics record between a and b is a synchronization point
    // (control records settle every earlier response first), so a is
    // compiled and cached before b is even submitted — b is a
    // deterministic CacheHit, never racing into Coalesced.
    const auto [out, quit] = runTranscript(
        "{\"id\":\"a\",\"benchmark\":\"QFT\",\"qubits\":3}\n"
        "{\"cmd\":\"metrics\"}\n"
        "{\"id\":\"b\",\"benchmark\":\"QFT\",\"qubits\":3}\n"
        "{\"id\":\"c\",\"benchmark\":\"HS\",\"qubits\":4}\n"
        "{\"cmd\":\"quit\"}\n"
        "{\"id\":\"never\",\"benchmark\":\"QFT\",\"qubits\":3}\n");
    EXPECT_TRUE(quit);
    ASSERT_EQ(out.size(), 4u); // nothing after quit is served
    EXPECT_TRUE(startsWith(out[0],
                           "{\"id\":\"a\",\"ok\":true,\"outcome\":"
                           "\"Compiled\",\"benchmark\":\"QFT-3\","
                           "\"fingerprint\":\""))
        << out[0];
    EXPECT_NE(out[0].find("\"cache_hit\":false"), std::string::npos);
    EXPECT_NE(out[0].find("\"program\":{"), std::string::npos);
    EXPECT_TRUE(startsWith(out[1], "{\"metrics\":true,")) << out[1];
    EXPECT_TRUE(startsWith(out[2],
                           "{\"id\":\"b\",\"ok\":true,\"outcome\":"
                           "\"CacheHit\",\"benchmark\":\"QFT-3\","
                           "\"fingerprint\":\""))
        << out[2];
    EXPECT_NE(out[2].find("\"cache_hit\":true"), std::string::npos);
    EXPECT_TRUE(startsWith(out[3],
                           "{\"id\":\"c\",\"ok\":true,\"outcome\":"
                           "\"Compiled\",\"benchmark\":\"HS-4\","))
        << out[3];

    // Identical requests produce identical fingerprints.
    const auto fpOf = [](const std::string &line) {
        const auto pos = line.find("\"fingerprint\":\"");
        return line.substr(pos + 15, 32);
    };
    EXPECT_EQ(fpOf(out[0]), fpOf(out[2]));
    EXPECT_NE(fpOf(out[0]), fpOf(out[3]));
}

TEST(ServerSessionTest, HelloAnnouncesVersionsAndCapabilities)
{
    const auto [out, quit] =
        runTranscript("{\"cmd\":\"hello\"}\n{\"cmd\":\"quit\"}\n");
    EXPECT_TRUE(quit);
    ASSERT_EQ(out.size(), 1u);
    const std::string &hello = out[0];
    EXPECT_TRUE(startsWith(hello, "{\"hello\":true,\"protocol_version\":"))
        << hello;
    EXPECT_NE(hello.find("\"protocol_version\":1"), std::string::npos);
    EXPECT_NE(hello.find("\"fingerprint_version\":"), std::string::npos);
    EXPECT_NE(hello.find("\"artifact_version\":"), std::string::npos);
    EXPECT_NE(hello.find("\"manifest_version\":"), std::string::npos);
    EXPECT_NE(hello.find("\"benchmarks\":[\"HS\",\"QFT\""),
              std::string::npos);
    EXPECT_NE(hello.find("\"pulse_methods\":["), std::string::npos);
    EXPECT_NE(hello.find("\"sched_policies\":["), std::string::npos);
    EXPECT_NE(hello.find("\"topologies\":[\"grid\",\"line\",\"ring\","
                         "\"heavyhex\",\"trigrid\"]"),
              std::string::npos);
    EXPECT_NE(hello.find("\"commands\":[\"hello\",\"metrics\",\"gc\","
                         "\"calibrate\",\"quit\"]"),
              std::string::npos);
    EXPECT_NE(hello.find("\"events\":[\"calib_epoch\"]"),
              std::string::npos);
    // No calib_events field in the request -> not subscribed.
    EXPECT_NE(hello.find("\"calib_events\":false"), std::string::npos);
}

TEST(ServerSessionTest, MetricsIncludesCacheAndAdmissionCounters)
{
    const auto [out, quit] = runTranscript(
        "{\"id\":\"a\",\"benchmark\":\"QFT\",\"qubits\":3}\n"
        "{\"cmd\":\"metrics\"}\n");
    ASSERT_EQ(out.size(), 2u);
    const std::string &metrics = out[1];
    EXPECT_TRUE(startsWith(metrics, "{\"metrics\":true,\"submitted\":1,"))
        << metrics;
    EXPECT_NE(metrics.find("\"completed\":1"), std::string::npos);
    EXPECT_NE(metrics.find("\"warm_boosted\":0"), std::string::npos);
    EXPECT_NE(metrics.find("\"cache_entries\":1"), std::string::npos);
    EXPECT_NE(metrics.find("\"cache_entry_bytes\":"), std::string::npos);
    EXPECT_NE(metrics.find("\"disk_writes\":0"), std::string::npos);
    EXPECT_NE(metrics.find("\"disk_bytes_written\":0"),
              std::string::npos);
    EXPECT_NE(metrics.find("\"calib_epochs_applied\":0"),
              std::string::npos);
    EXPECT_NE(metrics.find("\"calib_updates_rejected\":0"),
              std::string::npos);
    EXPECT_NE(metrics.find("\"calib_current\":{}"), std::string::npos);
}

TEST(ServerSessionTest, GcVerbReportsDisabledWithoutArtifactDir)
{
    const auto [out, quit] = runTranscript("{\"cmd\":\"gc\"}\n");
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], "{\"gc\":true,\"enabled\":false}");
}

TEST(ServerSessionTest, GcVerbRunsAPassOverTheArtifactTier)
{
    const std::string dir =
        (fs::temp_directory_path() / "qzz_server_gc_verb").string();
    fs::remove_all(dir);
    fs::create_directories(dir);

    ServerConfig config;
    config.artifact_dir = dir;
    const auto [out, quit] = runTranscript(
        "{\"id\":\"a\",\"benchmark\":\"QFT\",\"qubits\":3}\n"
        "{\"cmd\":\"gc\"}\n",
        config);
    ASSERT_EQ(out.size(), 2u);
    const std::string &gc = out[1];
    EXPECT_TRUE(startsWith(gc, "{\"gc\":true,\"enabled\":true,"
                               "\"scanned\":1,"))
        << gc;
    EXPECT_NE(gc.find("\"evicted\":0"), std::string::npos);
    EXPECT_NE(gc.find("\"capacity_bytes\":0"), std::string::npos);
    EXPECT_NE(gc.find("\"passes\":1"), std::string::npos);
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

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

TEST(SocketTransportTest, ServesConcurrentClientsWithSessionScopedQuit)
{
    SocketTransportConfig tc;
    tc.listen = "tcp:127.0.0.1:0";
    SocketTransport transport(tc);
    ASSERT_GT(transport.port(), 0);

    ServerConfig config;
    config.workers = 2;
    Server server(config);
    std::thread serving([&] { server.serve(transport); });

    const auto client = [&](const std::string &tag) {
        const int fd = connectTcp(transport.port());
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(sendAll(
            fd, "{\"cmd\":\"hello\"}\n"
                "{\"id\":\"" + tag + "1\",\"benchmark\":\"QFT\","
                "\"qubits\":3}\n"
                "{\"id\":\"" + tag + "2\",\"benchmark\":\"QFT\","
                "\"qubits\":3}\n"
                "{\"cmd\":\"quit\"}\n"));
        // Per-connection responses arrive in request order.
        EXPECT_TRUE(startsWith(recvLine(fd), "{\"hello\":true,"));
        EXPECT_TRUE(startsWith(recvLine(fd), "{\"id\":\"" + tag + "1\""));
        EXPECT_TRUE(startsWith(recvLine(fd), "{\"id\":\"" + tag + "2\""));
        EXPECT_EQ(recvLine(fd), ""); // quit closed this session only
        ::close(fd);
    };
    std::thread a([&] { client("a"); });
    std::thread b([&] { client("b"); });
    a.join();
    b.join();

    // quit is session-scoped: the daemon still accepts new clients.
    const int fd = connectTcp(transport.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, "{\"cmd\":\"hello\"}\n"));
    EXPECT_TRUE(startsWith(recvLine(fd), "{\"hello\":true,"));
    ::close(fd);

    transport.shutdown();
    serving.join();
}

TEST(SocketTransportTest, IdleTimeoutDisconnectsSilentPeers)
{
    SocketTransportConfig tc;
    tc.listen = "tcp:127.0.0.1:0";
    tc.idle_timeout = 50ms;
    SocketTransport transport(tc);

    const int fd = connectTcp(transport.port());
    ASSERT_GE(fd, 0);
    auto conn = transport.accept();
    ASSERT_NE(conn, nullptr);

    std::string line;
    EXPECT_FALSE(conn->readLine(line)); // silent peer -> timed out
    ::close(fd);
    transport.shutdown();
}

TEST(SocketTransportTest, OverlongLinesEndTheSession)
{
    SocketTransportConfig tc;
    tc.listen = "tcp:127.0.0.1:0";
    tc.max_line_bytes = 64;
    SocketTransport transport(tc);

    const int fd = connectTcp(transport.port());
    ASSERT_GE(fd, 0);
    auto conn = transport.accept();
    ASSERT_NE(conn, nullptr);

    ASSERT_TRUE(sendAll(fd, std::string(256, 'x')));
    std::string line;
    EXPECT_FALSE(conn->readLine(line));
    ::close(fd);
    transport.shutdown();
}

TEST(SocketTransportTest, UnixListenerRoundTripsAndUnlinksItsPath)
{
    const std::string path =
        (fs::temp_directory_path() / "qzz_server_test.sock").string();
    fs::remove(path);
    {
        SocketTransportConfig tc;
        tc.listen = "unix:" + path;
        SocketTransport transport(tc);
        EXPECT_TRUE(fs::exists(path));
        EXPECT_EQ(transport.name(), "unix:" + path);
        transport.shutdown();
        EXPECT_EQ(transport.accept(), nullptr);
    }
    EXPECT_FALSE(fs::exists(path)); // destructor unlinks
}

TEST(SocketTransportTest, RejectsMalformedListenSpecs)
{
    for (const std::string spec :
         {"", "tcp:", "tcp:notaport", "udp:1234", "tcp:999999",
          "tcp:256.1.1.1:80"}) {
        SocketTransportConfig tc;
        tc.listen = spec;
        EXPECT_THROW(SocketTransport{tc}, UserError) << spec;
    }
}

} // namespace
} // namespace qzz::svc
