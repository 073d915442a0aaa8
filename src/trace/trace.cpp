#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>

#include "trace/names.hpp"

namespace autockt::trace {

namespace names {

const std::vector<NameInfo>& registry() {
  static const std::vector<NameInfo> kRegistry = {
      // spans
      {kEvalEvaluate, "span",
       "one EvalBackend::evaluate() call at one decorator layer"},
      {kEvalEvaluateBatch, "span",
       "one evaluate_batch() call at the outermost backend layer"},
      {kEvalSimulate, "span",
       "one FunctionBackend leaf call (a point, or a whole batch as lanes)"},
      {kSimBuildWorkspace, "span",
       "SimWorkspace construction: pattern discovery + symbolic factorization"},
      {kSimFactorReal, "span", "real-valued numeric LU (re)factorization"},
      {kSimSolveReal, "span", "real-valued triangular solve"},
      {kSimFactorComplex, "span", "complex G + jwC numeric LU (re)factorization"},
      {kSimSolveComplex, "span", "complex triangular solve"},
      {kSimFactorRealBatch, "span",
       "real batched numeric LU over all lanes of one SoA pass"},
      {kSimSolveRealBatch, "span", "real batched triangular solve (all lanes)"},
      {kSimFactorComplexBatch, "span",
       "complex batched G + jwC numeric LU over all lanes"},
      {kSimSolveComplexBatch, "span",
       "complex batched triangular solve (all lanes)"},
      {kRlPipelineOverlap, "span",
       "policy inference overlapped with env simulation during collection"},
      {kEnvTick, "span", "one VectorSizingEnv::step_all lockstep tick"},
      {kEnvReset, "span", "one batched VectorSizingEnv reset"},
      {kRlIteration, "span", "one PPO training iteration (collect + update)"},
      {kRlCollect, "span", "rollout collection phase of a PPO iteration"},
      {kRlUpdate, "span", "clipped-surrogate update phase of a PPO iteration"},
      {kRlHoldoutProbe, "span", "greedy goal-rate probe over the holdout suite"},
      {kDeployRun, "span", "one deploy_agent() call over a target set"},
      {kEvalDiskReplay, "span",
       "DiskLogStore open(): replaying the on-disk log into the memo index"},
      {kEvalWorkerDispatch, "span",
       "one request round trip to a ProcessPoolBackend worker"},
      // counters
      {kEvalCacheHit, "counter", "evaluation answered from the memo cache"},
      {kEvalCacheMiss, "counter", "evaluation that had to reach the simulator"},
      {kEvalBatchPoints, "counter",
       "points submitted in one evaluate_batch (value = batch size)"},
      {kSimRestampReal, "counter", "real MNA restamp (begin_real)"},
      {kSimRestampComplex, "counter", "complex MNA restamp (begin_complex)"},
      {kSimNewtonIterations, "counter",
       "Newton iterations completed (value = iterations added)"},
      {kSimWarmStartAttempt, "counter",
       "DC solve offered a previous operating point"},
      {kSimWarmStartHit, "counter",
       "warm-started DC solve converged from the hint directly"},
      {kSimDenseFallback, "counter",
       "sparse pivot check failed; dense partial-pivot fallback ran"},
      {kSimBatchRefactor, "counter",
       "one batched refactorization pass (all lanes of one matrix)"},
      {kSimBatchLanes, "counter",
       "lanes factored by a batched refactorization (value = lane count)"},
      {kSimBatchLaneFallback, "counter",
       "single lane of a batched refactorization fell back to dense LU"},
      {kEvalDiskHit, "counter",
       "memo hit served by an entry replayed from the on-disk cache"},
      {kEvalDiskAppend, "counter",
       "memo entry appended to the on-disk eval cache log"},
      {kEvalWorkerPoints, "counter",
       "points shipped to pool workers (value = shard size)"},
      {kEvalWorkerRetry, "counter",
       "request retried after a worker crash or timeout"},
      {kEvalWorkerRestart, "counter",
       "crashed/timed-out pool worker replaced by a fresh fork"},
      {kEvalDiskWriteError, "counter",
       "eval-cache shard write failed (ENOSPC/EIO); shard frozen read-only"},
  };
  return kRegistry;
}

}  // namespace names

namespace {

std::atomic<bool> g_enabled{false};

#if AUTOCKT_TRACE_ENABLED

/// One producer thread's buffer. The mutex is effectively uncontended
/// (only the owning thread writes; reset/snapshot readers are rare), so
/// recording stays cheap and threads never serialize against each other.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceRecord> records;
  std::vector<std::uint64_t> open_spans;  // seq stack of open spans
  std::uint64_t next_seq = 0;
  std::uint32_t ord = 0;
};

struct GlobalState {
  std::mutex mutex;
  // shared_ptr keeps buffers of joined threads alive until the recorder is
  // read (PPO collection workers finish before the trainer snapshots).
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

GlobalState& global_state() {
  static GlobalState* state = new GlobalState();  // leaked: outlives threads
  return *state;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - global_state().epoch)
          .count());
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto fresh = std::make_shared<ThreadBuffer>();
    GlobalState& state = global_state();
    std::lock_guard<std::mutex> lock(state.mutex);
    fresh->ord = static_cast<std::uint32_t>(state.buffers.size());
    state.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

#endif  // AUTOCKT_TRACE_ENABLED

void write_json_record(std::ostream& out, const TraceRecord& rec) {
  // Names come from the static registry (trace/names.hpp) and contain no
  // characters that need JSON escaping.
  out << "{\"type\":\""
      << (rec.kind == RecordKind::Span ? "span" : "counter")
      << "\",\"name\":\"" << rec.name << "\",\"thread\":" << rec.thread_ord
      << ",\"seq\":" << rec.seq << ",\"parent\":" << rec.parent
      << ",\"depth\":" << rec.depth << ",\"start_ns\":" << rec.start_ns;
  if (rec.kind == RecordKind::Span) {
    out << ",\"dur_ns\":" << rec.duration_ns;
  } else {
    out << ",\"value\":" << rec.value;
  }
  out << "}\n";
}

}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool TraceRecorder::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

#if AUTOCKT_TRACE_ENABLED

void TraceRecorder::reset() {
  GlobalState& state = global_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  for (const auto& buffer : state.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->records.clear();
    buffer->open_spans.clear();
    buffer->next_seq = 0;
  }
  state.epoch = std::chrono::steady_clock::now();
}

std::vector<TraceRecord> TraceRecorder::snapshot() const {
  GlobalState& state = global_state();
  std::vector<TraceRecord> out;
  {
    std::lock_guard<std::mutex> lock(state.mutex);
    for (const auto& buffer : state.buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
      out.insert(out.end(), buffer->records.begin(), buffer->records.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              return a.thread_ord != b.thread_ord
                         ? a.thread_ord < b.thread_ord
                         : a.seq < b.seq;
            });
  return out;
}

#else  // AUTOCKT_TRACE_ENABLED == 0

void TraceRecorder::reset() {}

std::vector<TraceRecord> TraceRecorder::snapshot() const { return {}; }

#endif  // AUTOCKT_TRACE_ENABLED

std::map<std::string, long> TraceRecorder::counts_by_name() const {
  std::map<std::string, long> counts;
  for (const TraceRecord& rec : snapshot()) ++counts[rec.name];
  return counts;
}

void TraceRecorder::write_jsonl(std::ostream& out) const {
  const std::vector<TraceRecord> records = snapshot();
  std::uint32_t threads = 0;
  for (const TraceRecord& rec : records) {
    threads = std::max(threads, rec.thread_ord + 1);
  }
  out << "{\"type\":\"header\",\"schema\":\"autockt-trace-v1\","
      << "\"record_count\":" << records.size()
      << ",\"thread_count\":" << threads << "}\n";
  for (const TraceRecord& rec : records) write_json_record(out, rec);
}

bool TraceRecorder::write_jsonl_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_jsonl(out);
  return out.good();
}

#if AUTOCKT_TRACE_ENABLED

TraceSpan::TraceSpan(const char* name) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  TraceRecord rec;
  rec.name = name;
  rec.kind = RecordKind::Span;
  rec.thread_ord = buffer.ord;
  rec.seq = buffer.next_seq++;
  rec.parent = buffer.open_spans.empty()
                   ? -1
                   : static_cast<std::int64_t>(buffer.open_spans.back());
  rec.depth = static_cast<std::uint32_t>(buffer.open_spans.size());
  rec.start_ns = now_ns();
  index_ = buffer.records.size();
  seq_ = rec.seq;
  t0_ns_ = rec.start_ns;
  buffer.records.push_back(rec);
  buffer.open_spans.push_back(rec.seq);
  buffer_ = &buffer;
}

TraceSpan::~TraceSpan() {
  if (buffer_ == nullptr) return;
  ThreadBuffer& buffer = *static_cast<ThreadBuffer*>(buffer_);
  std::lock_guard<std::mutex> lock(buffer.mutex);
  // A reset() between open and close dropped our record; verify before
  // patching so the close can never corrupt an unrelated record.
  if (index_ < buffer.records.size() && buffer.records[index_].seq == seq_ &&
      buffer.records[index_].kind == RecordKind::Span) {
    const std::uint64_t now = now_ns();
    buffer.records[index_].duration_ns = now > t0_ns_ ? now - t0_ns_ : 0;
  }
  if (!buffer.open_spans.empty() && buffer.open_spans.back() == seq_) {
    buffer.open_spans.pop_back();
  }
}

void counter(const char* name, std::int64_t value) {
  if (!g_enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  TraceRecord rec;
  rec.name = name;
  rec.kind = RecordKind::Counter;
  rec.thread_ord = buffer.ord;
  rec.seq = buffer.next_seq++;
  rec.parent = buffer.open_spans.empty()
                   ? -1
                   : static_cast<std::int64_t>(buffer.open_spans.back());
  rec.depth = static_cast<std::uint32_t>(buffer.open_spans.size());
  rec.start_ns = now_ns();
  rec.value = value;
  buffer.records.push_back(rec);
}

#endif  // AUTOCKT_TRACE_ENABLED

}  // namespace autockt::trace
