#pragma once
// EvalBackend: the pluggable circuit-evaluation service every consumer of a
// SizingProblem talks to. AutoCkt's whole cost model is the number of
// circuit simulations (the paper's sample-efficiency metric), so the seam
// between "I need specs for this grid point" and "run the simulator" is a
// first-class, composable interface:
//
//   FunctionBackend    — adapts a plain simulator callable (the leaf)
//   CachedBackend      — sharded memo cache over the discrete grid
//   ThreadPoolBackend  — fans evaluate_batch() out over persistent workers
//   CornerBackend      — parallel PVT-corner fan-out + worst-case fold
//
// Decorators compose: Cached(Function(...)) over a batch simulator gives a
// batched, cached schematic problem; Cached(Corner(...)) the PEX flow. All
// backends must be thread-safe: PPO rollout workers evaluate concurrently.
//
// Batch semantics: evaluate_batch(points)[i] is exactly what evaluate
// (points[i]) would return — backends may parallelize, deduplicate and
// cache, but never change values or their order.

#include <memory>
#include <string>
#include <vector>

#include "eval/stats.hpp"
#include "eval/types.hpp"
#include "trace/names.hpp"
#include "trace/trace.hpp"

namespace autockt::eval {

class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  virtual std::string name() const = 0;

  /// Evaluate one design point. Thread-safe. The optional hint carries the
  /// caller's warm-start state (see eval/types.hpp); backends thread it
  /// down to the simulator leaf and may ignore it (cache hits do).
  EvalResult evaluate(const ParamVector& params, SimHint* hint = nullptr) {
    // One span per decorator layer: a Cached(Function) stack nests two
    // eval/evaluate spans, so a trace shows where each lookup stopped
    // descending.
    trace::TraceSpan span(trace::names::kEvalEvaluate);
    return do_evaluate(params, hint);
  }

  /// Evaluate many design points; result i corresponds to points[i].
  /// `hints` is either empty or aligned with `points` (entries may be
  /// null); distinct points must reference distinct SimHint objects so
  /// fan-out backends can write them concurrently.
  /// Batch-shape accounting happens here (once, at the outermost layer the
  /// caller holds), so decorators forward internally via dispatch_batch().
  /// The pending_batches gauge covers the call's whole lifetime, so a
  /// concurrent stats() observer sees how many lockstep ticks are in
  /// flight right now.
  std::vector<EvalResult> evaluate_batch(
      const std::vector<ParamVector>& points,
      const std::vector<SimHint*>& hints = {}) {
    // Decorators forward via dispatch_batch(), so exactly one span and one
    // batch_points counter per caller-visible batch.
    trace::TraceSpan span(trace::names::kEvalEvaluateBatch);
    trace::counter(trace::names::kEvalBatchPoints,
                   static_cast<std::int64_t>(points.size()));
    counters_.record_batch(static_cast<long>(points.size()));
    counters_.begin_pending_batch();
    struct PendingGuard {
      StatsCollector& counters;
      ~PendingGuard() { counters.end_pending_batch(); }
    } guard{counters_};
    return do_evaluate_batch(points, hints);
  }

  /// Snapshot of this backend's activity merged with everything below it.
  EvalStats stats() const { return counters_.snapshot() + inner_stats(); }

  void reset_stats() {
    counters_.reset();
    reset_inner_stats();
  }

  /// True when this backend (or its leaf) turns evaluate_batch() into one
  /// batched-kernel invocation rather than a loop over evaluate(). Fan-out
  /// decorators consult this to forward whole batches instead of splitting
  /// them into per-point tasks.
  virtual bool prefers_batch() const { return false; }

 protected:
  virtual EvalResult do_evaluate(const ParamVector& params, SimHint* hint) = 0;

  /// Default batch execution: a serial loop. Leaves inherit this;
  /// ThreadPoolBackend and CornerBackend override it with real fan-out.
  virtual std::vector<EvalResult> do_evaluate_batch(
      const std::vector<ParamVector>& points,
      const std::vector<SimHint*>& hints);

  /// hints[i] when provided, else null.
  static SimHint* hint_at(const std::vector<SimHint*>& hints, std::size_t i) {
    return i < hints.size() ? hints[i] : nullptr;
  }

  /// Decorators override these to chain the backend below them.
  virtual EvalStats inner_stats() const { return {}; }
  virtual void reset_inner_stats() {}

  /// Forward a batch to another backend without re-recording batch stats
  /// (protected cross-instance access must go through the base class).
  static std::vector<EvalResult> dispatch_batch(
      EvalBackend& backend, const std::vector<ParamVector>& points,
      const std::vector<SimHint*>& hints = {}) {
    return backend.do_evaluate_batch(points, hints);
  }

  mutable StatsCollector counters_;
};

}  // namespace autockt::eval
