/**
 * @file
 * CompileService unit tests: async submit/await, cache-hit
 * bit-identity with a cold sequential compile (the determinism
 * contract that justifies caching), priority ordering, deadlines,
 * cancellation, queue bounds, drain/shutdown, and metrics.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "circuit/benchmarks.h"
#include "graph/topologies.h"
#include "service/artifact.h"
#include "service/compile_service.h"

namespace qzz::svc {
namespace {

std::shared_ptr<const dev::Device>
makeDevice(int rows = 2, int cols = 3, uint64_t seed = 2)
{
    Rng rng(seed);
    return std::make_shared<const dev::Device>(
        graph::gridTopology(rows, cols), dev::DeviceParams{}, rng);
}

core::CompileOptions
gaussianZzx()
{
    core::CompileOptions opt;
    opt.pulse = core::PulseMethod::Gaussian;
    opt.sched = core::SchedPolicy::Zzx;
    return opt;
}

CompileServiceConfig
serviceConfig(int workers, bool paused = false, size_t max_queue = 4096)
{
    CompileServiceConfig config;
    config.num_workers = workers;
    config.start_paused = paused;
    config.max_queue = max_queue;
    return config;
}

CompileRequest
qftRequest(const std::shared_ptr<const dev::Device> &device)
{
    return {ckt::qft(6), device, gaussianZzx(), {}};
}

TEST(CompileServiceTest, SubmitMatchesDirectCompilerBitForBit)
{
    auto device = makeDevice();
    CompileService service(serviceConfig(2));
    ServiceResult result = service.submit(qftRequest(device)).get();
    ASSERT_EQ(result.outcome, Outcome::Compiled);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result.status.ok());
    EXPECT_FALSE(result.diagnostics.stages.empty());

    // The service compiles the canonical gate order (the fingerprint
    // domain), so the reference cold compile must too.
    const core::Compiler direct =
        core::CompilerBuilder(*device).options(gaussianZzx()).build();
    core::CompileResult expected =
        direct.compile(canonicalGateOrder(ckt::qft(6)));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(programArtifactString(*result.program),
              programArtifactString(expected.program));
}

TEST(CompileServiceTest, ReorderedDagEqualSubmissionsShareOneProgram)
{
    // Two gate lists with the same DAG but different order: the
    // second must hit the first's cache entry, and that shared
    // program must equal what either one's own cold compile (of the
    // canonical order) produces — the soundness condition for
    // DAG-invariant fingerprinting over order-sensitive routing.
    auto device = makeDevice();
    ckt::QuantumCircuit a(6, "pair");
    a.h(0);
    a.x(3);
    a.cx(0, 1);
    a.cx(3, 4);
    a.h(5);
    ckt::QuantumCircuit b(6, "pair");
    b.h(5);
    b.x(3);
    b.cx(3, 4);
    b.h(0);
    b.cx(0, 1);
    ASSERT_EQ(fingerprintRequest(a, *device, gaussianZzx()),
              fingerprintRequest(b, *device, gaussianZzx()));

    CompileService service(serviceConfig(1));
    ServiceResult first =
        service.submit({a, device, gaussianZzx(), {}}).get();
    ASSERT_EQ(first.outcome, Outcome::Compiled);
    ServiceResult second =
        service.submit({b, device, gaussianZzx(), {}}).get();
    ASSERT_EQ(second.outcome, Outcome::CacheHit);
    EXPECT_EQ(second.program.get(), first.program.get());

    const core::Compiler direct =
        core::CompilerBuilder(*device).options(gaussianZzx()).build();
    core::CompileResult cold_b =
        direct.compile(canonicalGateOrder(b));
    ASSERT_TRUE(cold_b.ok());
    EXPECT_EQ(programArtifactString(*second.program),
              programArtifactString(cold_b.program));
}

TEST(CompileServiceTest, CacheHitIsBitIdenticalToColdCompile)
{
    // The determinism contract end to end: a request generated from
    // an explicit seed (no global RNG anywhere), compiled cold by a
    // sequential Compiler, must match the service's cached answer
    // byte for byte.
    auto device = makeDevice();
    const uint64_t seed = 5;
    auto circuit = ckt::namedBenchmark("QAOA", 6, seed);
    ASSERT_TRUE(circuit.has_value());

    CompileService service(serviceConfig(2));
    CompileRequest first{*circuit, device, gaussianZzx(), {}};
    first.request.seed = seed;
    ServiceResult cold = service.submit(std::move(first)).get();
    ASSERT_EQ(cold.outcome, Outcome::Compiled);
    EXPECT_EQ(cold.seed, seed);

    CompileRequest second{*circuit, device, gaussianZzx(), {}};
    second.request.seed = seed;
    ServiceResult warm = service.submit(std::move(second)).get();
    ASSERT_EQ(warm.outcome, Outcome::CacheHit);
    EXPECT_EQ(warm.fingerprint, cold.fingerprint);
    // The cache hands out the same immutable program instance...
    EXPECT_EQ(warm.program.get(), cold.program.get());

    // ...which is bit-identical to an independent cold compile of
    // the canonical gate order.
    const core::Compiler direct =
        core::CompilerBuilder(*device).options(gaussianZzx()).build();
    core::CompileResult expected =
        direct.compile(canonicalGateOrder(*circuit));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(programArtifactString(*warm.program),
              programArtifactString(expected.program));
}

TEST(CompileServiceTest, UseCacheFalseForcesColdCompiles)
{
    auto device = makeDevice();
    CompileService service(serviceConfig(1));
    CompileRequest req = qftRequest(device);
    req.request.use_cache = false;
    ServiceResult a = service.submit(req).get();
    ServiceResult b = service.submit(req).get();
    EXPECT_EQ(a.outcome, Outcome::Compiled);
    EXPECT_EQ(b.outcome, Outcome::Compiled);
    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.cache_hits, 0u);
    EXPECT_EQ(m.cache_misses, 0u);
    EXPECT_EQ(m.cache_stats.insertions, 0u);
}

TEST(CompileServiceTest, PriorityOrderWithinPausedQueue)
{
    auto device = makeDevice();
    CompileService service(
        serviceConfig(1, /*paused=*/true));
    CompileRequest low = qftRequest(device);
    low.request.priority = 0;
    CompileRequest high = qftRequest(device);
    high.request.use_cache = false; // distinct work, same circuit
    high.request.priority = 10;
    RequestHandle low_handle = service.submit(std::move(low));
    RequestHandle high_handle = service.submit(std::move(high));
    service.resume();
    ServiceResult low_result = low_handle.get();
    ServiceResult high_result = high_handle.get();
    // Submitted second, served first.
    EXPECT_LT(high_result.completion_seq, low_result.completion_seq);
}

TEST(CompileServiceTest, FifoWithinSamePriority)
{
    auto device = makeDevice();
    CompileService service(
        serviceConfig(1, /*paused=*/true));
    std::vector<RequestHandle> handles;
    for (int i = 0; i < 3; ++i)
        handles.push_back(service.submit(qftRequest(device)));
    service.resume();
    uint64_t prev = 0;
    for (RequestHandle &h : handles) {
        const uint64_t seq = h.get().completion_seq;
        EXPECT_GT(seq, prev);
        prev = seq;
    }
}

TEST(CompileServiceTest, CancelQueuedRequest)
{
    auto device = makeDevice();
    CompileService service(
        serviceConfig(1, /*paused=*/true));
    RequestHandle handle = service.submit(qftRequest(device));
    EXPECT_TRUE(handle.cancel());
    EXPECT_FALSE(handle.cancel()); // already requested
    service.resume();
    ServiceResult result = handle.get();
    EXPECT_EQ(result.outcome, Outcome::Cancelled);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(service.metrics().cancelled, 1u);
}

TEST(CompileServiceTest, DeadlineExpiresWhileQueued)
{
    auto device = makeDevice();
    CompileService service(
        serviceConfig(1, /*paused=*/true));
    CompileRequest req = qftRequest(device);
    req.request.deadline = std::chrono::milliseconds(1);
    RequestHandle handle = service.submit(std::move(req));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.resume();
    ServiceResult result = handle.get();
    EXPECT_EQ(result.outcome, Outcome::DeadlineExceeded);
    EXPECT_EQ(service.metrics().expired, 1u);
}

TEST(CompileServiceTest, GenerousDeadlineStillCompiles)
{
    auto device = makeDevice();
    CompileService service(serviceConfig(1));
    CompileRequest req = qftRequest(device);
    req.request.deadline = std::chrono::milliseconds(60000);
    EXPECT_EQ(service.submit(std::move(req)).get().outcome,
              Outcome::Compiled);
}

TEST(CompileServiceTest, QueueBoundRejects)
{
    auto device = makeDevice();
    CompileService service(serviceConfig(1, /*paused=*/true, /*max_queue=*/1));
    RequestHandle queued = service.submit(qftRequest(device));
    RequestHandle rejected = service.submit(qftRequest(device));
    ServiceResult result = rejected.get(); // already resolved
    EXPECT_EQ(result.outcome, Outcome::Rejected);
    EXPECT_EQ(service.metrics().rejected, 1u);
    service.resume();
    EXPECT_EQ(queued.get().outcome, Outcome::Compiled);
}

TEST(CompileServiceTest, CompileFailureIsPerRequest)
{
    auto device = makeDevice(); // 6 qubits
    CompileService service(serviceConfig(1));
    ckt::QuantumCircuit too_big(12, "too-big");
    too_big.h(0);
    CompileRequest bad{too_big, device, gaussianZzx(), {}};
    ServiceResult result = service.submit(std::move(bad)).get();
    EXPECT_EQ(result.outcome, Outcome::Failed);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status.code, core::CompileStatusCode::InvalidInput);
    EXPECT_EQ(service.metrics().failed, 1u);
    // The service keeps serving after a failure.
    EXPECT_EQ(service.submit(qftRequest(device)).get().outcome,
              Outcome::Compiled);
}

TEST(CompileServiceTest, DegenerateDeviceFailsRequestNotService)
{
    // A topology with a self-loop coupling makes ZZXSched's
    // per-device table build (planar embedding) throw inside
    // Compiler construction.  That must surface as a Failed result
    // on this request — an uncaught exception on a worker thread
    // would std::terminate the whole service.
    graph::Topology looped = graph::customTopology(
        "self-loop", 3, {{0, 1}, {1, 2}, {2, 2}},
        {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}});
    Rng rng(2);
    auto device = std::make_shared<const dev::Device>(
        std::move(looped), dev::DeviceParams{}, rng);

    CompileService service(serviceConfig(1));
    ckt::QuantumCircuit c(3);
    c.h(0);
    c.cx(0, 1);
    ServiceResult result =
        service.submit({c, device, gaussianZzx(), {}}).get();
    EXPECT_EQ(result.outcome, Outcome::Failed);
    EXPECT_FALSE(result.status.ok());
    EXPECT_FALSE(result.status.message.empty());
    // The service survives and keeps serving.
    EXPECT_EQ(service.submit(qftRequest(makeDevice())).get().outcome,
              Outcome::Compiled);
}

TEST(CompileServiceTest, SubmitBatchLandsInOrder)
{
    auto device = makeDevice();
    std::vector<CompileRequest> requests;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Rng rng(seed);
        requests.push_back(
            {ckt::hiddenShift(6, rng), device, gaussianZzx(), {}});
    }
    CompileService service(serviceConfig(2));
    std::vector<RequestHandle> handles =
        service.submitBatch(std::move(requests));
    ASSERT_EQ(handles.size(), 4u);
    for (size_t i = 0; i < handles.size(); ++i) {
        ServiceResult result = handles[i].get();
        // Two seeds may generate the same circuit, in which case the
        // later request legitimately lands as a cache hit.
        EXPECT_TRUE(result.ok()) << "request " << i;
        Rng rng(uint64_t(i) + 1);
        EXPECT_EQ(result.fingerprint,
                  fingerprintRequest(ckt::hiddenShift(6, rng), *device,
                                     gaussianZzx()));
    }
}

TEST(CompileServiceTest, DrainWaitsForAllInFlight)
{
    auto device = makeDevice();
    CompileService service(serviceConfig(2));
    std::vector<RequestHandle> handles;
    for (int i = 0; i < 6; ++i) {
        CompileRequest req = qftRequest(device);
        req.request.use_cache = false;
        handles.push_back(service.submit(std::move(req)));
    }
    service.drain();
    for (RequestHandle &h : handles)
        EXPECT_EQ(h.future().wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    EXPECT_EQ(service.metrics().queue_depth, 0u);
}

TEST(CompileServiceTest, ShutdownWithoutDrainCancelsQueued)
{
    auto device = makeDevice();
    CompileService service(
        serviceConfig(1, /*paused=*/true));
    std::vector<RequestHandle> handles;
    for (int i = 0; i < 3; ++i)
        handles.push_back(service.submit(qftRequest(device)));
    service.shutdown(/*drain_pending=*/false);
    for (RequestHandle &h : handles)
        EXPECT_EQ(h.get().outcome, Outcome::Cancelled);
    // Post-shutdown submissions are rejected, not lost.
    EXPECT_EQ(service.submit(qftRequest(device)).get().outcome,
              Outcome::Rejected);
}

TEST(CompileServiceTest, MetricsSnapshotIsCoherent)
{
    auto device = makeDevice();
    CompileService service(serviceConfig(2));
    // 2 unique compiles + 4 repeats of the first.
    EXPECT_TRUE(service.submit(qftRequest(device)).get().ok());
    std::vector<RequestHandle> handles;
    Rng rng(1);
    handles.push_back(service.submit(
        {ckt::hiddenShift(6, rng), device, gaussianZzx(), {}}));
    for (int i = 0; i < 4; ++i)
        handles.push_back(service.submit(qftRequest(device)));
    for (RequestHandle &h : handles)
        EXPECT_TRUE(h.get().ok());

    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.submitted, 6u);
    EXPECT_EQ(m.completed, 6u);
    EXPECT_EQ(m.failed, 0u);
    EXPECT_EQ(m.queue_depth, 0u);
    EXPECT_EQ(m.workers, 2);
    EXPECT_EQ(m.cache_hits + m.cache_misses, 6u);
    EXPECT_GE(m.cache_hits, 4u); // the four repeats at minimum
    EXPECT_GT(m.throughput_per_s, 0.0);
    EXPECT_GT(m.uptime_ms, 0.0);
    EXPECT_LE(m.latency_p50_ms, m.latency_p95_ms);
    EXPECT_LE(m.latency_p95_ms, m.latency_p99_ms);
    EXPECT_GE(m.cache_hit_rate, 4.0 / 6.0 - 1e-9);
    EXPECT_EQ(m.cache_stats.entries, 2u);
}

TEST(CompileServiceTest, ConcurrentDuplicatesColdCompileExactlyOnce)
{
    // The coalescing contract: N identical cache-using submissions
    // racing across the worker pool produce exactly ONE cold compile
    // — a duplicate either parks on the in-flight compilation
    // (Coalesced) or lands on the cache entry the winner published
    // (CacheHit).  Before coalescing, two workers could both miss
    // before either inserted and compile the same fingerprint twice.
    constexpr int kDuplicates = 8;
    auto device = makeDevice(3, 4);
    CompileService service(serviceConfig(4, /*paused=*/true));
    std::vector<RequestHandle> handles;
    for (int i = 0; i < kDuplicates; ++i)
        handles.push_back(service.submit(qftRequest(device)));
    service.resume();

    int compiled = 0, coalesced = 0, hits = 0;
    std::shared_ptr<const core::CompiledProgram> first;
    for (RequestHandle &h : handles) {
        ServiceResult result = h.get();
        ASSERT_TRUE(result.ok());
        if (!first)
            first = result.program;
        // Every duplicate shares the single compiled instance.
        EXPECT_EQ(result.program.get(), first.get());
        switch (result.outcome) {
        case Outcome::Compiled:
            ++compiled;
            break;
        case Outcome::Coalesced:
            ++coalesced;
            break;
        case Outcome::CacheHit:
            ++hits;
            break;
        default:
            FAIL() << outcomeName(result.outcome);
        }
    }
    EXPECT_EQ(compiled, 1);
    EXPECT_EQ(coalesced + hits, kDuplicates - 1);

    const MetricsSnapshot m = service.metrics();
    EXPECT_EQ(m.completed, uint64_t(kDuplicates));
    EXPECT_EQ(m.coalesced, uint64_t(coalesced));
    EXPECT_EQ(m.cache_hits, uint64_t(hits));
}

TEST(CompileServiceTest, CoalescedFollowerSharesThePrimaryProgram)
{
    // Two workers, two identical paused requests: the second worker
    // claims the duplicate while the first is still compiling and
    // must park on it rather than compile again.
    auto device = makeDevice(3, 4, 5);
    CompileService service(serviceConfig(2, /*paused=*/true));
    RequestHandle a = service.submit(qftRequest(device));
    RequestHandle b = service.submit(qftRequest(device));
    service.resume();
    ServiceResult ra = a.get();
    ServiceResult rb = b.get();
    ASSERT_TRUE(ra.ok() && rb.ok());
    EXPECT_EQ(ra.fingerprint, rb.fingerprint);
    EXPECT_EQ(ra.program.get(), rb.program.get());
    const int cold = (ra.outcome == Outcome::Compiled ? 1 : 0) +
                     (rb.outcome == Outcome::Compiled ? 1 : 0);
    EXPECT_EQ(cold, 1);
}

TEST(CompileServiceTest, UseCacheFalseNeverCoalesces)
{
    // Explicit cold compiles must stay cold — they neither park on an
    // in-flight duplicate nor serve followers.
    auto device = makeDevice();
    CompileService service(serviceConfig(2, /*paused=*/true));
    CompileRequest req = qftRequest(device);
    req.request.use_cache = false;
    RequestHandle a = service.submit(req);
    RequestHandle b = service.submit(req);
    service.resume();
    EXPECT_EQ(a.get().outcome, Outcome::Compiled);
    EXPECT_EQ(b.get().outcome, Outcome::Compiled);
    EXPECT_EQ(service.metrics().coalesced, 0u);
}

TEST(CompileServiceTest, WarmRequestsJumpAheadOfColdOnes)
{
    // Cache-aware admission: a request whose fingerprint is already
    // resident must be served before cold requests submitted earlier
    // in the same priority class.
    auto device = makeDevice();

    // Compile the warm target once elsewhere to obtain its program,
    // then seed the paused service's cache with it directly — the
    // warm probe happens at submit time, so the entry must exist
    // before the warm submission, not merely before serving.
    CompileService oracle(serviceConfig(1));
    ServiceResult seeded = oracle.submit(qftRequest(device)).get();
    ASSERT_EQ(seeded.outcome, Outcome::Compiled);

    CompileService service(serviceConfig(1, /*paused=*/true));
    service.cache().insert(seeded.fingerprint, seeded.program);

    std::vector<RequestHandle> cold;
    for (uint64_t seed = 1; seed <= 2; ++seed) {
        Rng rng(seed);
        cold.push_back(service.submit(
            {ckt::hiddenShift(6, rng), device, gaussianZzx(), {}}));
    }
    RequestHandle warm = service.submit(qftRequest(device));
    service.resume();

    ServiceResult warm_result = warm.get();
    EXPECT_EQ(warm_result.outcome, Outcome::CacheHit);
    for (RequestHandle &h : cold) {
        // Submitted first, served after the warm jump.
        EXPECT_GT(h.get().completion_seq, warm_result.completion_seq);
    }
    EXPECT_EQ(service.metrics().warm_boosted, 1u);
}

TEST(CompileServiceTest, ColdRequestsBatchPerCompilerKey)
{
    // Interleaved submissions against two compiler keys (different
    // scheduling policies): with a batch limit wider than either
    // group, the whole first-submitted group is served back to back
    // before the queue rotates to the second.
    auto device = makeDevice();
    core::CompileOptions zzx = gaussianZzx();
    core::CompileOptions seq = gaussianZzx();
    seq.sched = core::SchedPolicy::Par;

    CompileService service(serviceConfig(1, /*paused=*/true));
    std::vector<RequestHandle> a, b;
    for (int i = 0; i < 3; ++i) {
        CompileRequest ra{ckt::qft(6), device, zzx, {}};
        ra.request.use_cache = false;
        a.push_back(service.submit(std::move(ra)));
        CompileRequest rb{ckt::qft(6), device, seq, {}};
        rb.request.use_cache = false;
        b.push_back(service.submit(std::move(rb)));
    }
    service.resume();

    uint64_t last_a = 0, first_b = ~uint64_t(0);
    for (RequestHandle &h : a)
        last_a = std::max(last_a, h.get().completion_seq);
    for (RequestHandle &h : b)
        first_b = std::min(first_b, h.get().completion_seq);
    EXPECT_LT(last_a, first_b);
}

TEST(CompileServiceTest, ColdBatchLimitBoundsGroupStickiness)
{
    // Group A holds one request more than kColdBatchLimit, interleaved
    // with group B.  The sticky batch serves A's first kColdBatchLimit
    // requests, then rotates to the oldest waiting head — B's first
    // request, older than A's last — instead of letting A run on.
    auto device = makeDevice();
    core::CompileOptions zzx = gaussianZzx();
    core::CompileOptions seq = gaussianZzx();
    seq.sched = core::SchedPolicy::Par;

    CompileService service(serviceConfig(1, /*paused=*/true));
    std::vector<RequestHandle> a, b;
    for (int i = 0; i <= kColdBatchLimit; ++i) {
        CompileRequest ra{ckt::qft(4), device, zzx, {}};
        ra.request.use_cache = false;
        a.push_back(service.submit(std::move(ra)));
        CompileRequest rb{ckt::qft(4), device, seq, {}};
        rb.request.use_cache = false;
        b.push_back(service.submit(std::move(rb)));
    }
    service.resume();

    std::vector<uint64_t> a_seq;
    for (RequestHandle &h : a)
        a_seq.push_back(h.get().completion_seq);
    const uint64_t first_b = b.front().get().completion_seq;
    for (size_t i = 1; i < a_seq.size(); ++i)
        EXPECT_GT(a_seq[i], a_seq[i - 1]);
    EXPECT_LT(a_seq[kColdBatchLimit - 1], first_b);
    EXPECT_GT(a_seq[kColdBatchLimit], first_b);
    for (size_t i = 1; i < b.size(); ++i)
        b[i].get();
}

TEST(CompileServiceTest, OutcomeNamesRoundTripForDisplay)
{
    EXPECT_EQ(outcomeName(Outcome::Compiled), "Compiled");
    EXPECT_EQ(outcomeName(Outcome::CacheHit), "CacheHit");
    EXPECT_EQ(outcomeName(Outcome::Coalesced), "Coalesced");
    EXPECT_EQ(outcomeName(Outcome::Failed), "Failed");
    EXPECT_EQ(outcomeName(Outcome::Cancelled), "Cancelled");
    EXPECT_EQ(outcomeName(Outcome::DeadlineExceeded),
              "DeadlineExceeded");
    EXPECT_EQ(outcomeName(Outcome::Rejected), "Rejected");
}

} // namespace
} // namespace qzz::svc
