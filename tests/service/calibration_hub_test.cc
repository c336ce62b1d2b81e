/**
 * @file
 * CalibrationHub tests: update validation (monotonic epochs, topology
 * agreement, physicality), subscriber event fan-out, the watch
 * directory, and the full server-level epoch-roll drill — submit,
 * roll via {"cmd":"calibrate"}, distinct fingerprint + miss-then-hit,
 * in-memory sweep, stale-epoch artifact eviction, and calib_epoch
 * event delivery (stream transcript and over a real socket).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.h"
#include "common/rng.h"
#include "device/calibration.h"
#include "device/device.h"
#include "graph/topologies.h"
#include "service/calibration_hub.h"
#include "service/jsonl.h"
#include "service/program_cache.h"
#include "service/server.h"
#include "service/transport.h"

namespace qzz::svc {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

/** A valid snapshot for @p topo at @p epoch, labelled by epoch. */
dev::Calibration
snapshotFor(const graph::Topology &topo, uint64_t sample_seed,
            uint64_t epoch)
{
    Rng rng(sample_seed);
    dev::Calibration c =
        dev::Calibration::sampled(topo, dev::DeviceParams{}, rng);
    c.epoch = epoch;
    c.id = "push-" + std::to_string(epoch);
    return c;
}

/** The snapshot as the escaped string field of a calibrate record. */
std::string
calibrateLine(const dev::Calibration &calib, const std::string &extra)
{
    return "{\"cmd\":\"calibrate\",\"snapshot\":\"" +
           jsonEscape(dev::calibrationJsonString(calib)) + "\"" +
           extra + "}\n";
}

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

TEST(TopologyFromNameTest, RoundTripsEveryFamily)
{
    const graph::Topology originals[] = {
        graph::gridTopology(2, 3),
        graph::triangulatedGridTopology(2, 4),
        graph::heavyHexTopology(1, 1),
        graph::lineTopology(6),
        graph::ringTopology(8),
    };
    for (const graph::Topology &t : originals) {
        const auto back = topologyFromName(t.name);
        ASSERT_TRUE(back.has_value()) << t.name;
        EXPECT_EQ(back->name, t.name);
        EXPECT_EQ(back->g.numVertices(), t.g.numVertices()) << t.name;
        EXPECT_EQ(back->g.numEdges(), t.g.numEdges()) << t.name;
    }
}

TEST(TopologyFromNameTest, RejectsMalformedNames)
{
    const char *bad[] = {
        "",          "torus-3",    "grid-3",     "grid-0x3",
        "grid-3x",   "grid-x3",    "grid-3x-2",  "line-",
        "line-0",    "line-12a",   "ring-9999999999",
        "grid-3x3 ", "heavyhex-1",
    };
    for (const char *name : bad)
        EXPECT_FALSE(topologyFromName(name).has_value()) << name;
}

TEST(CalibrationHubTest, ApplyValidatesMonotonicEpochsAndTopology)
{
    CalibrationHubConfig hc;
    hc.keep_epochs = 1;
    CalibrationHub hub(hc, nullptr, nullptr);
    const auto grid = [] { return graph::gridTopology(2, 3); };

    // Epoch 0 never applies: the boot generation is implicitly 0.
    const auto u0 =
        hub.apply(grid(), 7, snapshotFor(grid(), 7, 0), "test");
    EXPECT_FALSE(u0.applied);
    EXPECT_EQ(u0.error, "stale epoch 0 (live is 0)");
    EXPECT_EQ(u0.device_key, "grid-2x3#7");

    const auto u1 =
        hub.apply(grid(), 7, snapshotFor(grid(), 7, 1), "test");
    EXPECT_TRUE(u1.applied) << u1.error;
    EXPECT_EQ(u1.epoch, 1u);
    EXPECT_EQ(hub.currentEpoch("grid-2x3#7"), 1u);
    const auto live = hub.liveDevice("grid-2x3", 7);
    ASSERT_TRUE(live != nullptr);
    EXPECT_EQ(live->calibration().epoch, 1u);
    EXPECT_EQ(live->calibration().id, "push-1");
    // Other seeds / topologies are untouched.
    EXPECT_TRUE(hub.liveDevice("grid-2x3", 8) == nullptr);
    EXPECT_TRUE(hub.liveDevice("line-6", 7) == nullptr);

    // Replaying the same epoch is stale.
    const auto u1b =
        hub.apply(grid(), 7, snapshotFor(grid(), 7, 1), "test");
    EXPECT_FALSE(u1b.applied);
    EXPECT_EQ(u1b.error, "stale epoch 1 (live is 1)");

    // A snapshot for the wrong topology is rejected outright.
    const auto mismatch = hub.apply(
        grid(), 7, snapshotFor(graph::lineTopology(6), 7, 2), "test");
    EXPECT_FALSE(mismatch.applied);
    EXPECT_NE(mismatch.error.find("does not match topology"),
              std::string::npos)
        << mismatch.error;

    // Unphysical coherence times (T2 > 2 T1) are rejected.
    dev::Calibration unphysical = snapshotFor(grid(), 7, 2);
    unphysical.t1[0] = 100.0;
    unphysical.t2[0] = 300.0;
    const auto phys = hub.apply(grid(), 7, unphysical, "test");
    EXPECT_FALSE(phys.applied);
    EXPECT_NE(phys.error.find("T2 <= 2 T1"), std::string::npos)
        << phys.error;

    const CalibrationHubStats s = hub.stats();
    EXPECT_EQ(s.epochs_applied, 1u);
    EXPECT_EQ(s.updates_rejected, 4u);
    ASSERT_EQ(s.current.size(), 1u);
    EXPECT_EQ(s.current[0].first, "grid-2x3#7");
    EXPECT_EQ(s.current[0].second, 1u);
}

TEST(CalibrationHubTest, SubscribersReceiveEventFrames)
{
    CalibrationHub hub({}, nullptr, nullptr);
    const auto line4 = [] { return graph::lineTopology(4); };

    std::vector<std::string> got;
    const uint64_t token =
        hub.subscribe([&](const std::string &line) {
            got.push_back(line);
        });
    EXPECT_EQ(hub.subscriberCount(), 1u);

    // Rejections do not notify.
    hub.apply(line4(), 3, snapshotFor(line4(), 3, 0), "test");
    EXPECT_TRUE(got.empty());

    hub.apply(line4(), 3, snapshotFor(line4(), 3, 1), "test");
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0],
              "{\"event\":\"calib_epoch\",\"device\":\"line-4#3\","
              "\"epoch\":1,\"calib_id\":\"push-1\","
              "\"entries_invalidated\":0,\"source\":\"test\"}\n");

    hub.unsubscribe(token);
    EXPECT_EQ(hub.subscriberCount(), 0u);
    hub.apply(line4(), 3, snapshotFor(line4(), 3, 2), "test");
    EXPECT_EQ(got.size(), 1u); // no event after unsubscribe
}

TEST(CalibrationHubTest, WatchDirAppliesDroppedSnapshots)
{
    const fs::path dir =
        fs::temp_directory_path() / "qzz_hub_watch_test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    CalibrationHubConfig hc;
    hc.watch_dir = dir.string();
    CalibrationHub hub(hc, nullptr, nullptr);
    const auto grid = [] { return graph::gridTopology(2, 3); };

    // Nothing to do on an empty directory.
    EXPECT_EQ(hub.pollWatchDir(), 0u);

    // Drop an epoch-1 snapshot named "<topology>@<seed>.qzzcalib".
    ASSERT_TRUE(dev::saveCalibrationFile(
        snapshotFor(grid(), 7, 1),
        (dir / "grid-2x3@7.qzzcalib").string()));
    EXPECT_EQ(hub.pollWatchDir(), 1u);
    EXPECT_EQ(hub.currentEpoch("grid-2x3#7"), 1u);
    // An unchanged file is not reprocessed.
    EXPECT_EQ(hub.pollWatchDir(), 0u);

    // A replaced file with a newer epoch rolls again.  (Sleep past
    // the watcher's millisecond mtime granularity.)
    std::this_thread::sleep_for(10ms);
    ASSERT_TRUE(dev::saveCalibrationFile(
        snapshotFor(grid(), 7, 2),
        (dir / "grid-2x3@7.qzzcalib").string()));
    EXPECT_EQ(hub.pollWatchDir(), 1u);
    EXPECT_EQ(hub.currentEpoch("grid-2x3#7"), 2u);

    // Bad device names and torn files count as watch errors — once
    // per file version, not once per tick.
    {
        std::ofstream torn((dir / "grid-2x3@9.qzzcalib").string());
        torn << dev::calibrationJsonString(snapshotFor(grid(), 9, 1))
                    .substr(0, 40);
    }
    {
        std::ofstream noseed((dir / "noseed.qzzcalib").string());
        noseed << dev::calibrationJsonString(snapshotFor(grid(), 7, 3));
    }
    EXPECT_EQ(hub.pollWatchDir(), 0u);
    EXPECT_EQ(hub.pollWatchDir(), 0u);
    const CalibrationHubStats s = hub.stats();
    EXPECT_EQ(s.watch_loads, 2u);
    EXPECT_EQ(s.watch_errors, 2u);
    EXPECT_EQ(s.epochs_applied, 2u);
    EXPECT_GE(s.last_watch_latency_ms, 0.0);

    fs::remove_all(dir);
}

TEST(CalibrationHubTest, WatchDirCountsAnOversizedFileAsAnError)
{
    // A valid snapshot padded one byte past the document bound: the
    // watcher reads at most that one byte more and refuses the file.
    const fs::path dir = fs::temp_directory_path() /
                         ("qzz_hub_watch_big_" +
                          std::to_string(std::random_device{}()));
    fs::create_directories(dir);
    CalibrationHubConfig hc;
    hc.watch_dir = dir.string();
    CalibrationHub hub(hc, nullptr, nullptr);
    std::string text = dev::calibrationJsonString(
        snapshotFor(graph::gridTopology(2, 3), 7, 1));
    text.resize(json::kMaxDocumentBytes + 1, ' ');
    {
        std::ofstream big((dir / "grid-2x3@7.qzzcalib").string());
        big << text;
    }
    EXPECT_EQ(hub.pollWatchDir(), 0u);
    EXPECT_EQ(hub.stats().watch_errors, 1u);
    EXPECT_EQ(hub.stats().watch_loads, 0u);
    EXPECT_EQ(hub.currentEpoch("grid-2x3#7"), 0u);
    fs::remove_all(dir);
}

TEST(CalibrationHubTest, ServerEpochRollDrill)
{
    const fs::path dir =
        fs::temp_directory_path() / "qzz_hub_drill_artifacts";
    fs::remove_all(dir);
    fs::create_directories(dir);

    ServerConfig config;
    config.artifact_dir = dir.string();
    config.gc_keep_epochs = 1;

    const std::string submit =
        "{\"id\":\"%\",\"benchmark\":\"QFT\",\"qubits\":4,"
        "\"topology\":\"line\"}\n";
    const auto req = [&](const std::string &id) {
        std::string s = submit;
        s.replace(s.find('%'), 1, id);
        return s;
    };
    const dev::Calibration push =
        snapshotFor(graph::lineTopology(4), 99, 1);

    // The metrics records after "a" and "c" are deterministic
    // barriers: control records wait for the writer to drain, so the
    // preceding compile is fully cached before the follow-up submits
    // (otherwise it may coalesce onto the in-flight compile instead
    // of hitting the cache).
    const auto [out, quit] = runTranscript(
        req("a") + "{\"cmd\":\"metrics\"}\n" + req("b") +
            "{\"cmd\":\"hello\",\"calib_events\":true}\n" +
            calibrateLine(push, ",\"topology\":\"line\",\"size\":4,"
                                "\"device_seed\":7") +
            req("c") + "{\"cmd\":\"metrics\"}\n" + req("d") +
            "{\"cmd\":\"metrics\"}\n"
            "{\"cmd\":\"gc\"}\n{\"cmd\":\"quit\"}\n",
        config);
    EXPECT_TRUE(quit);
    // a, metrics, b, hello, event, calibrate, c, metrics, d,
    // metrics, gc.
    ASSERT_EQ(out.size(), 11u);

    const auto fpOf = [](const std::string &line) {
        const auto pos = line.find("\"fingerprint\":\"");
        EXPECT_NE(pos, std::string::npos) << line;
        return line.substr(pos + 15, 32);
    };

    // Pre-roll: compile once, hit once, programs carry epoch 0.
    EXPECT_NE(out[0].find("\"outcome\":\"Compiled\""),
              std::string::npos)
        << out[0];
    EXPECT_NE(out[0].find("\"calib_epoch\":0"), std::string::npos);
    EXPECT_TRUE(startsWith(out[1], "{\"metrics\":true,")) << out[1];
    EXPECT_NE(out[2].find("\"outcome\":\"CacheHit\""),
              std::string::npos)
        << out[2];

    // The capability handshake confirms the subscription.
    EXPECT_NE(out[3].find("\"calib_events\":true"), std::string::npos)
        << out[3];

    // The roll: event frame first (pushed to this subscribed
    // session), then the calibrate response.  The epoch-0 in-memory
    // entry is swept (gc_keep_epochs = 1).
    EXPECT_EQ(out[4],
              "{\"event\":\"calib_epoch\",\"device\":\"line-4#7\","
              "\"epoch\":1,\"calib_id\":\"push-1\","
              "\"entries_invalidated\":1,\"source\":\"calibrate\"}");
    EXPECT_TRUE(startsWith(out[5],
                           "{\"calibrate\":true,\"applied\":true,"
                           "\"device\":\"line-4#7\",\"epoch\":1,"
                           "\"entries_invalidated\":1,"))
        << out[5];

    // Post-roll: identical submissions fingerprint differently,
    // recompile exactly once, and carry the new epoch.
    EXPECT_NE(out[6].find("\"outcome\":\"Compiled\""),
              std::string::npos)
        << out[6];
    EXPECT_NE(out[6].find("\"calib_epoch\":1"), std::string::npos);
    EXPECT_NE(out[8].find("\"outcome\":\"CacheHit\""),
              std::string::npos)
        << out[8];
    EXPECT_EQ(fpOf(out[0]), fpOf(out[2]));
    EXPECT_EQ(fpOf(out[6]), fpOf(out[8]));
    EXPECT_NE(fpOf(out[0]), fpOf(out[6]));

    // Metrics expose the hub counters and the live epoch per device.
    EXPECT_NE(out[9].find("\"calib_epochs_applied\":1"),
              std::string::npos)
        << out[9];
    EXPECT_NE(out[9].find("\"calib_entries_invalidated\":1"),
              std::string::npos);
    EXPECT_NE(out[9].find("\"calib_current\":{\"line-4#7\":1}"),
              std::string::npos)
        << out[9];

    // The explicit GC pass retires the stale epoch-0 artifact now
    // that an epoch-1 artifact exists on disk.
    EXPECT_NE(out[10].find("\"evicted_epoch\":1"), std::string::npos)
        << out[10];

    fs::remove_all(dir);
}

TEST(CalibrationHubTest, CalibrateVerbRejectsBadInput)
{
    const dev::Calibration stale =
        snapshotFor(graph::lineTopology(4), 99, 0);
    const dev::Calibration wrong_topo =
        snapshotFor(graph::lineTopology(4), 99, 1);
    const auto [out, quit] = runTranscript(
        "{\"cmd\":\"calibrate\"}\n"
        "{\"cmd\":\"calibrate\",\"snapshot\":\"{}\"}\n" +
        calibrateLine(stale, ",\"topology\":\"line\",\"size\":4") +
        calibrateLine(wrong_topo,
                      ",\"topology\":\"ring\",\"size\":4") +
        "{\"cmd\":\"quit\"}\n");
    EXPECT_TRUE(quit);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0],
              "{\"calibrate\":true,\"applied\":false,\"error\":"
              "\"missing 'snapshot' (calibration JSON document as a "
              "string)\"}");
    EXPECT_TRUE(startsWith(out[1],
                           "{\"calibrate\":true,\"applied\":false,"
                           "\"error\":\"bad snapshot: "))
        << out[1];
    EXPECT_NE(out[2].find("\"applied\":false"), std::string::npos);
    EXPECT_NE(out[2].find("stale epoch 0 (live is 0)"),
              std::string::npos)
        << out[2];
    EXPECT_NE(out[3].find("\"applied\":false"), std::string::npos);
    EXPECT_NE(out[3].find("does not match topology"),
              std::string::npos)
        << out[3];
}

// ---------------------------------------------------------------------------
// Socket-level event delivery
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

TEST(CalibrationHubTest, CalibEventReachesSubscribedSocketClient)
{
    SocketTransportConfig tc;
    tc.listen = "tcp:127.0.0.1:0";
    SocketTransport transport(tc);
    ASSERT_GT(transport.port(), 0);

    ServerConfig config;
    config.workers = 2;
    Server server(config);
    std::thread serving([&] { server.serve(transport); });

    // Client A subscribes via the hello capability.  Receiving the
    // hello response proves the subscription is registered.
    const int a = connectTcp(transport.port());
    ASSERT_GE(a, 0);
    ASSERT_TRUE(
        sendAll(a, "{\"cmd\":\"hello\",\"calib_events\":true}\n"));
    const std::string hello = recvLine(a);
    EXPECT_NE(hello.find("\"calib_events\":true"), std::string::npos)
        << hello;

    // Client B pushes the roll; its response proves apply() finished,
    // which means the event frame is already queued on A.
    const int b = connectTcp(transport.port());
    ASSERT_GE(b, 0);
    const dev::Calibration push =
        snapshotFor(graph::lineTopology(4), 99, 1);
    ASSERT_TRUE(sendAll(
        b, calibrateLine(push, ",\"topology\":\"line\",\"size\":4,"
                               "\"device_seed\":7") +
               "{\"cmd\":\"quit\"}\n"));
    const std::string calibrated = recvLine(b);
    EXPECT_TRUE(startsWith(calibrated,
                           "{\"calibrate\":true,\"applied\":true,"))
        << calibrated;

    // A's next read delivers the event frame BEFORE the response to
    // its next request, and that response compiles against epoch 1.
    ASSERT_TRUE(sendAll(a, "{\"id\":\"x\",\"benchmark\":\"QFT\","
                           "\"qubits\":4,\"topology\":\"line\"}\n"
                           "{\"cmd\":\"quit\"}\n"));
    const std::string event = recvLine(a);
    EXPECT_TRUE(startsWith(event,
                           "{\"event\":\"calib_epoch\",\"device\":"
                           "\"line-4#7\",\"epoch\":1,"))
        << event;
    const std::string response = recvLine(a);
    EXPECT_TRUE(startsWith(response, "{\"id\":\"x\",\"ok\":true,"))
        << response;
    EXPECT_NE(response.find("\"calib_epoch\":1"), std::string::npos)
        << response;

    ::close(a);
    ::close(b);
    transport.shutdown();
    serving.join();
}

} // namespace
} // namespace qzz::svc
