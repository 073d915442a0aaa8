#include "eval/cached_backend.hpp"

#include <unordered_map>

#include "trace/names.hpp"
#include "trace/trace.hpp"

namespace autockt::eval {

CachedBackend::CachedBackend(std::shared_ptr<EvalBackend> inner,
                             std::size_t shards)
    : inner_(std::move(inner)),
      store_(std::make_shared<InMemoryStore>(shards)) {}

CachedBackend::CachedBackend(std::shared_ptr<EvalBackend> inner,
                             std::shared_ptr<MemoStore> store)
    : inner_(std::move(inner)), store_(std::move(store)) {}

void CachedBackend::count_hit(bool replayed) {
  counters_.add_cache_hit();
  trace::counter(trace::names::kEvalCacheHit);
  if (replayed) {
    // The entry came off the on-disk log at open(): this hit is a
    // simulation a PREVIOUS process paid for.
    counters_.add_disk_hit();
    trace::counter(trace::names::kEvalDiskHit);
  }
}

void CachedBackend::memoize(const ParamVector& params,
                            const EvalResult& result) {
  // Simulator failures are memoized like successes (a non-converging point
  // must not be re-simulated), but TRANSPORT failures — a pool worker that
  // crashed or timed out — are transient and must not be: with a persistent
  // store one flaky timeout would durably poison the entry and every warm
  // run would replay the spurious error instead of re-simulating.
  if (is_transport_error(result)) return;
  if (store_->insert(params, result) && store_->persistent()) {
    counters_.add_disk_append();
  }
}

EvalResult CachedBackend::do_evaluate(const ParamVector& params,
                                      SimHint* hint) {
  EvalResult cached = EvalResult(SpecVector{});
  bool replayed = false;
  if (store_->lookup(params, &cached, &replayed)) {
    count_hit(replayed);
    return cached;
  }
  // Simulate outside the store's stripe locks; concurrent misses on the
  // same key may both simulate, but the evaluator is a pure function so
  // either insert wins with the same value.
  counters_.add_cache_miss();
  trace::counter(trace::names::kEvalCacheMiss);
  EvalResult result = inner_->evaluate(params, hint);
  memoize(params, result);
  return result;
}

std::vector<EvalResult> CachedBackend::do_evaluate_batch(
    const std::vector<ParamVector>& points,
    const std::vector<SimHint*>& hints) {
  std::vector<EvalResult> out(points.size(), EvalResult(SpecVector{}));

  // Pass 1: serve hits, collect unique misses (a miss keeps the warm-start
  // hint of its FIRST occurrence — exactly what the serial loop would use).
  std::vector<ParamVector> misses;
  std::vector<SimHint*> miss_hints;
  std::unordered_map<ParamVector, std::vector<std::size_t>, ParamVectorHash>
      miss_slots;
  for (std::size_t i = 0; i < points.size(); ++i) {
    bool replayed = false;
    if (store_->lookup(points[i], &out[i], &replayed)) {
      count_hit(replayed);
      continue;
    }
    auto [slot_it, inserted] = miss_slots.try_emplace(points[i]);
    if (inserted) {
      counters_.add_cache_miss();
      trace::counter(trace::names::kEvalCacheMiss);
      misses.push_back(points[i]);
      miss_hints.push_back(hint_at(hints, i));
    } else {
      // A duplicate of an in-flight miss: costs no extra simulation.
      count_hit(/*replayed=*/false);
    }
    slot_it->second.push_back(i);
  }

  // Pass 2: one (smaller) batch below for the unique misses, so the leaf
  // still runs them as lanes and a process pool still shards them.
  if (!misses.empty()) {
    std::vector<EvalResult> fresh = dispatch_batch(*inner_, misses, miss_hints);
    for (std::size_t m = 0; m < misses.size(); ++m) {
      memoize(misses[m], fresh[m]);
      for (std::size_t slot : miss_slots[misses[m]]) {
        out[slot] = fresh[m];
      }
    }
  }
  return out;
}

}  // namespace autockt::eval
