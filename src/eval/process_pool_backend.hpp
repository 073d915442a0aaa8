#pragma once
// ProcessPoolBackend: fans evaluate() / evaluate_batch() out over forked
// worker processes — the eval stack's one way to use more cores. Threads
// would share one address space (and therefore one crash domain and one
// set of process-wide kernel counters); a process pool gives each worker
// its own: a simulator bug that corrupts or kills a worker costs one
// retry, never the trainer.
//
// Protocol: each worker owns one AF_UNIX stream socketpair and speaks a
// strict request/reply alternation of length-prefixed binary frames
// (u32 little-endian payload length + payload). A request carries a slice
// of design points plus each caller's warm-start SimHint; the reply carries
// the bit-exact EvalResults (doubles as raw IEEE bit patterns — see
// util/fmt.hpp), the updated hints, and an EvalStats delta so the parent's
// stats() reflect work done in children (including the spice kernel
// counters, via Options::leaf_stats).
//
// Determinism contract: results are reassembled by input index and each
// point is evaluated by the same pure evaluator the serial path runs, so
// evaluate_batch() output is bitwise-equal to the serial backend —
// distribution is a throughput optimization, never a semantic one.
//
// Failure model: a worker that crashes, closes its socket, or misses the
// per-request deadline (on send OR receive — a child that stops reading is
// as dead as one that stops writing) is SIGKILLed, reaped and replaced by
// a fresh fork (worker_restarts). The failed request is retried ONCE, per
// point — so a single poison point that reliably kills a worker turns into
// one error result (worker_retries, code kTransportErrorCode — which memo
// layers refuse to cache), while its innocent chunk-mates still evaluate.
//
// Fork hygiene: forking from a multithreaded parent is a minefield — a
// concurrent thread can hold the allocator lock at fork time, deadlocking
// any child that mallocs. So the pool forks ONE single-threaded helper (the
// "zygote") at construction, while the parent is still quiescent; every
// worker — initial and respawned — is then forked BY the zygote and its
// socket passed back over SCM_RIGHTS. Workers are therefore always forks
// of a single-threaded process, inherit no sibling descriptors, and may
// freely allocate while building the inner stack via the injected factory
// (which also guarantees it never contains threads that died in a fork).
// If the zygote is ever lost, spawning falls back to a direct fork that
// closes a mutex-guarded snapshot of the pool's open descriptors — a
// degraded mode that accepts the multithreaded-fork risk rather than going
// dark.

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/backend.hpp"

namespace autockt::eval {

class ProcessPoolBackend : public EvalBackend {
 public:
  /// Builds the evaluation stack a worker runs — called once per worker,
  /// in the CHILD, immediately after fork.
  using InnerFactory = std::function<std::shared_ptr<EvalBackend>()>;

  struct Options {
    std::size_t workers = 4;
    /// Deadline for one request round trip; a worker that misses it is
    /// killed and the request retried once. Generous by default — a slow
    /// simulation is not a crash.
    long request_timeout_ms = 120000;
    /// Extra per-process stats a child folds into its reply delta (e.g.
    /// the spice layer's process-wide kernel counters, which the eval
    /// layer cannot see). May be null.
    std::function<EvalStats()> leaf_stats;
    /// Display label for the (child-side) inner stack in name().
    std::string inner_name = "worker";
  };

  ProcessPoolBackend(InnerFactory inner_factory, const Options& options);
  ProcessPoolBackend(InnerFactory inner_factory)
      : ProcessPoolBackend(std::move(inner_factory), Options()) {}
  ~ProcessPoolBackend() override;
  ProcessPoolBackend(const ProcessPoolBackend&) = delete;
  ProcessPoolBackend& operator=(const ProcessPoolBackend&) = delete;

  std::string name() const override {
    return "procpool[" + std::to_string(workers_.size()) + "](" +
           options_.inner_name + ")";
  }

  std::size_t num_workers() const { return workers_.size(); }

 protected:
  EvalResult do_evaluate(const ParamVector& params, SimHint* hint) override;
  std::vector<EvalResult> do_evaluate_batch(
      const std::vector<ParamVector>& points,
      const std::vector<SimHint*>& hints) override;
  EvalStats inner_stats() const override;
  void reset_inner_stats() override;

 private:
  struct Worker {
    std::mutex mutex;    // serializes the request/reply round trip
    int fd = -1;         // parent end of the socketpair
    pid_t pid = -1;
    bool direct = false;  // true: our own child (fallback fork), reap it;
                          // false: the zygote's child (kernel-reaped)
  };

  void spawn_worker_locked(Worker& worker);
  void kill_worker_locked(Worker& worker);
  [[noreturn]] void child_main(int fd);

  // -- zygote spawner (see "Fork hygiene" above) --
  void start_zygote();
  void shutdown_zygote();
  [[noreturn]] void zygote_main(int control_fd);
  /// Ask the zygote for a fresh worker. Returns true with *fd/*pid filled
  /// on success; false when the zygote is unavailable or its fork failed.
  bool spawn_via_zygote(int* fd, pid_t* pid);
  /// Fallback direct fork (multithreaded-parent risk accepted); closes a
  /// snapshot of parent_fds_ in the child. Leaves *fd at -1 on failure.
  void spawn_direct(int* fd, pid_t* pid);

  /// Registry of this pool's open parent-side fds (worker sockets + zygote
  /// control): the snapshot a fallback direct fork closes in its child so
  /// a worker never holds a sibling's socket open past its EOF shutdown.
  void register_parent_fd(int fd);
  void unregister_parent_fd(int fd);

  /// One request/reply round trip on `worker` (mutex must NOT be held).
  /// Returns false on crash/timeout, after replacing the worker.
  bool round_trip(Worker& worker, const std::string& request,
                  std::string* reply);

  /// Evaluate `points` on one worker with crash retry; writes results
  /// aligned with `points` and copies updated hints back into `hints`.
  void run_on_worker(Worker& worker, const std::vector<ParamVector>& points,
                     const std::vector<SimHint*>& hints,
                     std::vector<EvalResult>* out);

  Worker& pick_worker();

  InnerFactory inner_factory_;
  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::size_t> next_worker_{0};

  std::mutex zygote_mutex_;  // serializes spawn requests on the control fd
  int zygote_fd_ = -1;       // parent end of the zygote control socket
  pid_t zygote_pid_ = -1;

  std::mutex parent_fds_mutex_;
  std::vector<int> parent_fds_;

  mutable std::mutex child_stats_mutex_;
  EvalStats child_stats_;  // accumulated reply deltas
};

}  // namespace autockt::eval
