/**
 * @file
 * Per-request trace spans and the JSONL sink they are written to.
 *
 * Every request entering the serving plane carries a trace_id —
 * minted at Session read, or supplied by the client and echoed in the
 * response — and leaves behind a small span tree:
 *
 *   request                       (root, parent_id 0)
 *     |-- queue_wait              admission queue time
 *     |-- cache_probe             program-cache lookup (memory + disk)
 *     |-- compile                 whole pipeline, when a compile ran
 *     |     |-- route / lower / schedule
 *     |-- artifact_write          cache insert + artifact-tier store
 *   respond                       (child of request; emitted by the
 *                                  Session after the bytes are out)
 *
 * Spans are JSON-lines records appended to one file (--trace-log)
 * with size-bounded rotation: when the file would exceed max_bytes it
 * is renamed to "<path>.1" (replacing any previous one) and a fresh
 * file is started, so the sink holds at most ~2x max_bytes.  A
 * --slow-ms threshold additionally logs a compact single-line summary
 * of any root span that took longer, to stderr by default.
 *
 * Span ids are unique per process (one atomic), so parent/child edges
 * never collide across concurrent requests; trace ids are 32 hex
 * chars, unique across processes with overwhelming probability.
 */

#ifndef QZZ_SERVICE_TRACE_H
#define QZZ_SERVICE_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace qzz::svc {

/** One timed operation inside a trace. */
struct TraceSpan
{
    std::string trace_id;
    uint64_t span_id = 0;
    /** 0 marks a root span. */
    uint64_t parent_id = 0;
    std::string name;
    /** Wall-clock start, milliseconds since the unix epoch. */
    double start_unix_ms = 0.0;
    double duration_ms = 0.0;
    /** Free-form annotations (outcome, fingerprint, ...). */
    std::vector<std::pair<std::string, std::string>> attrs;
};

/** Wall-clock now, milliseconds since the unix epoch (the clock of
 *  TraceSpan::start_unix_ms). */
inline double
unixNowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

struct TraceLogConfig
{
    /** JSONL sink path; must be non-empty. */
    std::string path;
    /** Rotate when the file would exceed this (0 = never rotate). */
    uint64_t max_bytes = 64ull << 20;
    /** Root spans at least this slow get a one-line summary on the
     *  slow sink; 0 disables. */
    double slow_ms = 0.0;
};

/** Thread-safe JSONL span sink with size-bounded rotation. */
class TraceLog
{
  public:
    explicit TraceLog(TraceLogConfig config);

    TraceLog(const TraceLog &) = delete;
    TraceLog &operator=(const TraceLog &) = delete;

    /** Append one span record. */
    void emit(const TraceSpan &span);
    /** Append a whole tree under one lock, so a request's spans land
     *  contiguously; also checks the root span against slow_ms. */
    void emitTree(const std::vector<TraceSpan> &spans);

    uint64_t spansEmitted() const;
    uint64_t rotations() const;
    uint64_t slowLogged() const;
    double slowMs() const { return config_.slow_ms; }
    const std::string &path() const { return config_.path; }

    /** Redirect slow-request summaries (tests); default is stderr.
     *  The sink must outlive the log. */
    void setSlowSink(std::ostream *sink);

    /** 32 lowercase hex chars, unique across processes with
     *  overwhelming probability. */
    static std::string mintTraceId();
    /** Process-unique span id (never 0). */
    static uint64_t mintSpanId();

  private:
    void writeLocked(const std::string &line);
    void maybeLogSlowLocked(const TraceSpan &root);

    TraceLogConfig config_;
    std::mutex mu_;
    std::ofstream out_;
    uint64_t offset_ = 0;
    std::ostream *slow_sink_ = nullptr; ///< null = stderr
    std::atomic<uint64_t> spans_emitted_{0};
    std::atomic<uint64_t> rotations_{0};
    std::atomic<uint64_t> slow_logged_{0};
};

/** Render one span as its JSONL record (no trailing newline);
 *  exposed for tests. */
std::string renderTraceSpan(const TraceSpan &span);

} // namespace qzz::svc

#endif // QZZ_SERVICE_TRACE_H
