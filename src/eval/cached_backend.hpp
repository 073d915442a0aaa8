#pragma once
// CachedBackend: the memo-cache decorator, keyed on grid indices. The
// action space is discrete, every episode restarts from the grid centre,
// and PPO revisits neighbourhoods constantly — so repeat visits are the
// common case and become near-free. Simulator failures are memoized too: a
// design point the simulator could not converge on is not re-simulated.
// The one exception is transport failures (kTransportErrorCode — a pool
// worker crashed or timed out): those say nothing about the design point
// and are never memoized, so the next visit re-simulates.
//
// Storage is pluggable (eval/memo_store.hpp): the default InMemoryStore
// reproduces the original sharded map; a DiskLogStore makes the memo
// survive restarts, in which case hits on replayed entries are additionally
// counted as disk_hits and fresh inserts as disk_appends.
//
// Batch calls deduplicate: within one evaluate_batch, identical points cost
// one simulation (first occurrence counts as the miss, duplicates as hits)
// and the misses are forwarded below as a single smaller batch, so a batch
// leaf still runs them as lanes and a ProcessPoolBackend underneath still
// shards them across its workers.

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eval/backend.hpp"
#include "eval/memo_store.hpp"

namespace autockt::eval {

class CachedBackend : public EvalBackend {
 public:
  /// Original form: backs the memo with an InMemoryStore of `shards`
  /// stripes (behavior-identical to the pre-MemoStore implementation).
  explicit CachedBackend(std::shared_ptr<EvalBackend> inner,
                         std::size_t shards = 16);

  /// Pluggable-store form (e.g. a DiskLogStore for a persistent cache).
  CachedBackend(std::shared_ptr<EvalBackend> inner,
                std::shared_ptr<MemoStore> store);

  std::string name() const override {
    return "cached[" + store_->describe() + "](" + inner_->name() + ")";
  }

  /// Entries currently memoized — exact, takes every store stripe lock.
  /// Hot logging paths should prefer approx_size().
  std::size_t size() const { return store_->size(); }
  /// Lock-free approximate entry count (one relaxed atomic load); may lag
  /// concurrent inserts by a few entries but never touches a stripe lock.
  std::size_t approx_size() const { return store_->approx_size(); }
  void clear() { store_->clear(); }
  /// Persist buffered store state (fsync batching); no-op for memory
  /// stores.
  void flush() { store_->flush(); }

  const std::shared_ptr<EvalBackend>& inner() const { return inner_; }
  const std::shared_ptr<MemoStore>& store() const { return store_; }

 protected:
  EvalResult do_evaluate(const ParamVector& params, SimHint* hint) override;
  std::vector<EvalResult> do_evaluate_batch(
      const std::vector<ParamVector>& points,
      const std::vector<SimHint*>& hints) override;
  EvalStats inner_stats() const override { return inner_->stats(); }
  void reset_inner_stats() override { inner_->reset_stats(); }

 private:
  void count_hit(bool replayed);
  void memoize(const ParamVector& params, const EvalResult& result);

  std::shared_ptr<EvalBackend> inner_;
  std::shared_ptr<MemoStore> store_;
};

}  // namespace autockt::eval
