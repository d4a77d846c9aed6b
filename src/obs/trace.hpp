// rcm::obs::trace — end-to-end tracing for the replicated pipeline.
//
// A TraceContext (trace id + current span id) is allocated per DM update,
// carried through the wire protocol as an optional tagged extension
// (wire/codec.hpp), and propagated across threads by storing the trace id
// on the Alert an update triggers. Each hop of the pipeline — DM emit,
// UDP ingest, WAL append, evaluator transition, AD filter verdict,
// holdback release, TCP fan-out — records a Span into a fixed-size
// lock-free ring buffer owned by the recording thread. Rings are
// exportable as Chrome trace_event JSON (chrome://tracing, Perfetto) and
// served live by the alert service's admin `trace-dump` command.
//
// Design rules, inherited from rcm::obs::metrics and enforced here:
//   1. The hot path is ONE ring write per span (plus two steady_clock
//      reads for the timestamps). No allocation, no locks, no syscalls.
//      perfbench's obs.trace_overhead_frac measures the cost.
//   2. Tracing observes, it never participates: span recording feeds
//      nothing back into evaluation, filtering, or scheduling, and trace
//      ids are pure functions of (var, seqno) — swarm digests stay
//      bit-identical with tracing on or off.
//   3. -DRCM_NO_METRICS (or -DRCM_NO_TRACING alone) compiles every span
//      into an inline no-op with the identical API; TraceContext itself
//      stays defined because the wire codec carries it as plain data.
//
// Runtime gate: tracing starts DISABLED and costs one relaxed atomic
// load per would-be span until trace::set_enabled(true). Thread rings
// are allocated lazily on a thread's first recorded span, and recycled
// through a free list when the thread exits, so short-lived workers
// (service replica incarnations, pool threads) bound total ring memory
// by the peak number of concurrently-tracing threads.
//
// Concurrency: each ring has exactly one producer (its thread); readers
// (export) copy slots through a per-slot seqlock over atomic fields, so
// a dump taken mid-run sees each span either fully or not at all, and
// never blocks the producer. Span name/reason must be string literals
// (or otherwise immortal) — only the pointer is stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#if defined(RCM_NO_METRICS) || defined(RCM_NO_TRACING)
#define RCM_TRACING_ENABLED 0
#else
#define RCM_TRACING_ENABLED 1
#endif

namespace rcm::obs::trace {

/// Propagated trace context: which end-to-end trace the current work
/// belongs to and which span is its parent. trace_id == 0 means "no
/// context" (spans still record, rooted at the thread).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< parent span for spans opened under this

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Deterministic per-update trace id: FNV-1a over (var, seqno). Pure
/// function of the update so tracing cannot perturb run digests, and the
/// same update traces to the same id on every replica. Never returns 0.
[[nodiscard]] constexpr std::uint64_t derive_trace_id(
    std::uint64_t var, std::int64_t seqno) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::uint64_t words[2] = {var + 1,
                                  static_cast<std::uint64_t>(seqno)};
  for (std::uint64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h == 0 ? 1 : h;
}

/// One recorded span, as export sees it.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  const char* name = nullptr;    ///< string literal
  const char* reason = nullptr;  ///< optional string literal (verdicts)
  std::int64_t var = -1;         ///< -1 = not set
  std::int64_t seq = 0;
  std::uint64_t start_ns = 0;    ///< since process trace epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;         ///< small per-thread index, not the OS tid
};

/// Spans each thread ring retains; older spans are overwritten.
inline constexpr std::size_t kRingCapacity = 4096;

#if RCM_TRACING_ENABLED

/// Global runtime gate. Disabled by default; one relaxed load per
/// would-be span while off.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// The calling thread's current trace context (zero-initialized until a
/// ContextScope or set_current_context installs one).
[[nodiscard]] const TraceContext& current_context() noexcept;
void set_current_context(const TraceContext& ctx) noexcept;

/// RAII: installs `ctx` as the thread's current context, restoring the
/// previous one on scope exit. The unit of cross-hop propagation.
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx) noexcept;
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext saved_;
};

/// Labels the calling thread's ring in exports (e.g. "replica-0").
/// Cheap but not free (registry mutex): call once at thread start.
void set_thread_name(const std::string& name);

/// RAII span: measures construction→destruction and records one
/// SpanRecord into the thread ring on exit (iff tracing was enabled at
/// construction). Opens a child of the current context and becomes the
/// current parent for spans nested inside it.
class Span {
 public:
  /// `name` must be a string literal (only the pointer is kept).
  explicit Span(const char* name) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  Span& var(std::int64_t v) noexcept {
    var_ = v;
    return *this;
  }
  Span& seq(std::int64_t s) noexcept {
    seq_ = s;
    return *this;
  }
  /// `r` must be a string literal.
  Span& reason(const char* r) noexcept {
    reason_ = r;
    return *this;
  }

 private:
  bool active_;
  const char* name_;
  const char* reason_ = nullptr;
  std::int64_t var_ = -1;
  std::int64_t seq_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t start_ns_ = 0;
  TraceContext prev_{};
};

/// Total spans recorded since start/clear(), across all rings (including
/// overwritten ones).
[[nodiscard]] std::uint64_t total_spans() noexcept;

/// Drops every recorded span (ring memory is kept). Benches call this
/// between phases; concurrent recording during clear is harmless but the
/// cut is not exact.
void clear() noexcept;

/// Exports every stable recorded span as Chrome trace_event JSON
/// ({"traceEvents": [...]}, "X" complete events in microseconds, plus
/// thread-name metadata). With max_bytes > 0 the newest spans win and
/// the object carries "truncated": true when the budget dropped any.
/// Loads directly in chrome://tracing and Perfetto.
[[nodiscard]] std::string export_chrome_json(std::size_t max_bytes = 0);

#else  // RCM_TRACING_ENABLED

inline bool enabled() noexcept { return false; }
inline void set_enabled(bool) noexcept {}
inline TraceContext current_context() noexcept { return {}; }
inline void set_current_context(const TraceContext&) noexcept {}

class ContextScope {
 public:
  explicit ContextScope(const TraceContext&) noexcept {}
};

inline void set_thread_name(const std::string&) {}

class Span {
 public:
  explicit Span(const char*) noexcept {}
  Span& var(std::int64_t) noexcept { return *this; }
  Span& seq(std::int64_t) noexcept { return *this; }
  Span& reason(const char*) noexcept { return *this; }
};

inline std::uint64_t total_spans() noexcept { return 0; }
inline void clear() noexcept {}
inline std::string export_chrome_json(std::size_t = 0) {
  return "{\"traceEvents\": []}\n";
}

#endif  // RCM_TRACING_ENABLED

}  // namespace rcm::obs::trace

/// Declares a scoped span named `var` (string-literal `name`); expands to
/// a no-op object under RCM_NO_METRICS / RCM_NO_TRACING. The object
/// supports .var()/.seq()/.reason() chaining in both builds.
#define RCM_TRACE_SPAN(var, name) ::rcm::obs::trace::Span var { name }
