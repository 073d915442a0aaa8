#pragma once
// Deterministic span/trace layer (docs/DESIGN.md section 11, operator's
// guide in docs/OBSERVABILITY.md). A process-wide TraceRecorder collects
// TraceRecords into per-thread buffers; scoped TraceSpan RAII timers and
// counter() events are the only producers. The contract that makes traces
// assertable in tests:
//
//  * Determinism: for a fixed seed, the *count* of records per name is
//    bitwise-identical across runs (durations, thread ordinals and
//    interleavings are not — never assert on those).
//  * Per-thread buffering: producers touch only their own buffer (one
//    uncontended mutex each), so tracing never serializes the rollout
//    workers against each other.
//  * Off by default: recording starts only after set_enabled(true); a
//    disabled call site costs one relaxed atomic load (inline, with the
//    recording itself out of line).
//  * Compile-out: configure with -DAUTOCKT_TRACE=OFF and TraceSpan/counter
//    become empty inlines — zero overhead, same API, every caller still
//    compiles.
//
// Every name passed to TraceSpan/counter must come from trace/names.hpp so
// the registry (and the OBSERVABILITY.md glossary cross-check test) stays
// the single source of truth.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#ifndef AUTOCKT_TRACE_ENABLED
#define AUTOCKT_TRACE_ENABLED 1
#endif

namespace autockt::trace {

enum class RecordKind { Span, Counter };

/// One completed span or counter event. `seq` orders records within a
/// thread (parents allocate their seq before any child, so parent < seq
/// always holds); `parent` is the seq of the innermost enclosing span on
/// the same thread, -1 at top level.
struct TraceRecord {
  const char* name = nullptr;  // interned literal from trace/names.hpp
  RecordKind kind = RecordKind::Span;
  std::uint32_t thread_ord = 0;  // buffer registration order (not stable
                                 // across runs — do not assert on it)
  std::uint64_t seq = 0;
  std::int64_t parent = -1;
  std::uint32_t depth = 0;
  std::uint64_t start_ns = 0;     // steady-clock ns since recorder epoch
  std::uint64_t duration_ns = 0;  // 0 for counters and still-open spans
  std::int64_t value = 0;         // counter delta; 0 for spans
};

/// Whether the span layer was compiled in (-DAUTOCKT_TRACE=ON, default).
constexpr bool compiled_in() { return AUTOCKT_TRACE_ENABLED != 0; }

namespace detail {
/// TraceRecorder::set_enabled()'s switch, read inline at every call site.
inline std::atomic<bool> g_enabled{false};
}  // namespace detail

/// Process-wide sink for trace records. All methods are thread-safe; reset
/// and snapshot may race with producers (they see a consistent prefix of
/// each thread's buffer).
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Runtime switch. Off by default; flipping it on/off mid-span is safe
  /// (an orphaned close is dropped, never mispatched).
  void set_enabled(bool on);
  bool enabled() const;

  /// Drop all records, restart per-thread sequence numbers and the epoch.
  /// Call only at quiescent points (no spans open anywhere).
  void reset();

  /// Merged copy of every thread's records, sorted by (thread_ord, seq).
  std::vector<TraceRecord> snapshot() const;

  /// Record count per name — the deterministic projection of a trace.
  std::map<std::string, long> counts_by_name() const;

  /// JSON-lines export: one header line ("type":"header", schema
  /// "autockt-trace-v1") followed by one line per record. Schema details
  /// in docs/OBSERVABILITY.md.
  void write_jsonl(std::ostream& out) const;
  bool write_jsonl_file(const std::string& path) const;

 private:
  TraceRecorder() = default;
};

inline TraceRecorder& recorder() { return TraceRecorder::instance(); }

#if AUTOCKT_TRACE_ENABLED

/// Scoped RAII timer. The record is appended (with duration 0) when the
/// span opens — establishing parent links for children — and its duration
/// is patched in place when the scope exits.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (detail::g_enabled.load(std::memory_order_relaxed)) open(name);
  }
  ~TraceSpan() {
    if (buffer_ != nullptr) close();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void open(const char* name);
  void close();

  void* buffer_ = nullptr;  // ThreadBuffer*; null when recording was off
  std::size_t index_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t t0_ns_ = 0;
};

namespace detail {
void record_counter(const char* name, std::int64_t value);
}  // namespace detail

/// Append a counter event (delta or gauge sample) under the current span.
inline void counter(const char* name, std::int64_t value = 1) {
  if (detail::g_enabled.load(std::memory_order_relaxed)) {
    detail::record_counter(name, value);
  }
}

#else  // AUTOCKT_TRACE_ENABLED == 0: same API, empty inlines.

class TraceSpan {
 public:
  explicit TraceSpan(const char* /*name*/) {}
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
};

inline void counter(const char* /*name*/, std::int64_t /*value*/ = 1) {}

#endif  // AUTOCKT_TRACE_ENABLED

}  // namespace autockt::trace
