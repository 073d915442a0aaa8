#pragma once
// The PPO update behind PpoAgent::train(): every epoch's minibatches of one
// collected batch through the policy and the value net, on one fork-join
// thread team. train() runs the rest of each iteration on the same team:
// the collection lane groups, the value pass and the holdout probe groups.
// Internal to the trainer; it has its own header so tests can run it on
// teams of any size. The team size has no public option.
//
// Each minibatch runs in kUpdateChunk-row chunks, and each chunk in two
// fork-join phases over both nets:
//   1. rows: an item of 8 rows gathers its observations, runs the
//      forwards, writes its loss terms and dLoss/dOutput, and
//      backpropagates its deltas;
//   2. gradient rows: an item adds every row of the chunk, in row order,
//      onto its run of gradient rows (one weight row plus its bias per
//      layer output); the runs have even fan-in cost.
// After phase 1 the calling thread adds the chunk's loss terms in row
// order. After the last chunk it computes each net's clip norm as one
// serial sum, and a third phase applies the clip scale and Adam over
// parameter ranges. The items are the same at every team size and no sum
// changes order, so the result is bitwise the same at every team size.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "nn/mlp.hpp"
#include "rl/ppo.hpp"

namespace autockt::rl::detail {

/// Rows per pass of the update. A minibatch runs through the nets in chunks
/// of this many rows, so a chunk's activations stay cache-resident whatever
/// the minibatch size.
constexpr int kUpdateChunk = 64;

/// One collected agent step.
struct Transition {
  std::vector<double> obs;
  std::vector<int> action;  // one choice per parameter head
  double logp = 0.0;        // the action's summed log-probability
  double reward = 0.0;
  double value = 0.0;  // the value net's estimate at collection
};

/// What the update reads: the collected transitions, their advantages and
/// returns, and every epoch's shuffle (epochs x steps.size() indices). None
/// of it is written during the update.
struct UpdateBatch {
  const std::vector<const Transition*>& steps;
  const std::vector<double>& advantages;
  const std::vector<double>& returns;
  const std::vector<std::size_t>& orders;
};

/// A fork-join team: the calling thread plus size() - 1 helper threads,
/// started once and woken for each run(). A run is a number of work items,
/// and every thread claims items until none are left, so a helper that is
/// slow to wake (on a busy host) leaves its share to the others instead of
/// stalling the run. A one-item run executes on the calling thread without
/// waking the helpers.
///
/// The helpers live as long as the team, so a trainer that owns one team
/// starts no thread per iteration, and its threads attach to a fixed set
/// of malloc arenas.
///
/// Two waits spin before they block: a helper waiting for the next run,
/// and the caller waiting for the last item of its run. Each spins with
/// the x86 `pause` instruction for up to kSpinWindow, then sleeps in a
/// C++20 atomic wait (a futex on Linux); on other targets they block at
/// once. The update's runs follow each other within tens of microseconds,
/// so its helpers stay awake through a minibatch instead of waiting on a
/// futex wake-up per run.
class ThreadTeam {
 public:
  /// Starts size - 1 helpers. Throws std::invalid_argument when size < 1
  /// and std::system_error when a thread cannot start.
  explicit ThreadTeam(int size);
  ~ThreadTeam();  // stops and joins the helpers
  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  int size() const { return size_; }

  /// Runs job(item, t) once for every item in [0, items) on whichever
  /// thread claims it, t being that thread's index (0 for the caller), and
  /// returns once every item is done. Items may run in any order and at
  /// the same time, so each must write only its own outputs and t's
  /// scratch. The job must not throw (checked here): an item that can fail
  /// catches into a slot of its own, and the caller reads the slots after
  /// the run. One thread at a time may call run(). Throws
  /// std::invalid_argument when items is outside [0, kMaxItems].
  template <class Job>
  void run(int items, const Job& job) {
    static_assert(std::is_nothrow_invocable_v<const Job&, int, int>,
                  "a team job must be noexcept");
    run_erased(items, &job, [](const void* j, int item, int t) noexcept {
      (*static_cast<const Job*>(j))(item, t);
    });
  }

  static constexpr int kMaxItems = 0xffff;
  static constexpr std::chrono::microseconds kSpinWindow{200};

 private:
  using Call = void (*)(const void*, int, int) noexcept;

  /// Helper t's loop: sleeps until a run starts, then works on it.
  void helper(int t);
  void run_erased(int items, const void* job, Call call);
  /// Claims and runs items of run `generation` until none are left.
  void work(std::uint32_t generation, int t);
  void stop();  // wakes, stops and joins the helpers started so far

  int size_;
  // The current run's job. Written only while no item is pending.
  const void* job_ = nullptr;
  Call call_ = nullptr;
  /// The current run's claims: generation << 32 | items << 16 | next item.
  std::atomic<std::uint64_t> ticket_{0};
  std::atomic<int> pending_{0};  // items of the current run not yet done
  std::atomic<std::uint32_t> generation_{0};  // bumped to wake the helpers
  std::atomic<bool> quit_{false};
  std::vector<std::thread> helpers_;
};

/// The size of the team train() runs every phase on: one thread per 16
/// rows of an update chunk, at most one per hardware thread.
int update_team_size();

/// Loss sums over every epoch, minibatch and row of one update, added in
/// that order.
struct UpdateLosses {
  double policy = 0.0;   // clipped-surrogate terms
  double entropy = 0.0;  // head entropies, row-major, head-minor
  double value = 0.0;    // 0.5 * (V - return)^2
};

/// The update of one policy/value pair on one team. The constructor sizes
/// every buffer and split; run() allocates nothing.
class PpoUpdate {
 public:
  /// Throws std::invalid_argument unless the nets share an input width,
  /// the policy has kActionsPerParam logits per head and the value net has
  /// one output.
  PpoUpdate(nn::Mlp& policy, nn::Mlp& value, const PpoConfig& config,
            ThreadTeam& team);

  /// One update over `batch`: for each epoch and minibatch, zero the
  /// gradients, run the chunks, clip each net's gradients to
  /// config.max_grad_norm and take one Adam step per net.
  UpdateLosses run(const UpdateBatch& batch, nn::Adam& opt_policy,
                   nn::Adam& opt_value);

 private:
  // One work item of each phase; t is the thread running it.
  void rows_item(const UpdateBatch& batch, const std::size_t* idx, int rows,
                 double inv_b, int item, int t);
  void grads_item(int item);
  void step_item(nn::Adam& opt_policy, nn::Adam& opt_value,
                 double policy_scale, double value_scale, int item);

  nn::Mlp& policy_;
  nn::Mlp& value_;
  const PpoConfig config_;
  ThreadTeam& team_;
  const int heads_;
  const int chunk_rows_;
  // Written by the team: a rows item owns its rows of the traces and the
  // loss-term buffers, and thread t owns row t of probs_.
  nn::Mlp::BatchTrace policy_trace_, value_trace_;
  std::vector<double> probs_;
  std::vector<double> policy_terms_, entropy_terms_, value_terms_;
  // Gradient-rows item i covers gradient rows (the policy's, then the
  // value net's) [grad_split_[i], grad_split_[i + 1]); step item i covers
  // parameters (likewise) [param_split_[i], param_split_[i + 1]).
  std::vector<int> grad_split_;
  std::vector<std::size_t> param_split_;
};

}  // namespace autockt::rl::detail
