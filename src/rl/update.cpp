#include "rl/update.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "env/sizing_env.hpp"
#include "nn/categorical.hpp"

namespace autockt::rl::detail {

namespace {

constexpr int kActions = env::SizingEnv::kActionsPerParam;

/// The items of the three phases: rows per phase-1 item, gradient-row runs
/// and parameter ranges. More items than threads let the threads that run
/// take over the share of one that does not.
constexpr int kItemRows = 8;
constexpr int kGradItems = 16;
constexpr int kStepItems = 8;

/// The factor clip_grad_norm scales `grads` by: max_norm over their global
/// norm when that is larger, else 1. The norm is one serial sum.
double clip_scale(const std::vector<double>& grads, double max_norm) {
  double sq = 0.0;
  for (double g : grads) sq += g * g;
  const double norm = std::sqrt(sq);
  return norm > max_norm && norm > 0.0 ? max_norm / norm : 1.0;
}

/// Scales grads [begin, end) of `net` by `scale` and takes `opt`'s current
/// step over them.
void step_range(nn::Mlp& net, nn::Adam& opt, double scale, std::size_t begin,
                std::size_t end) {
  double* g = net.grads().data();
  if (scale != 1.0) {
    for (std::size_t i = begin; i < end; ++i) g[i] *= scale;
  }
  opt.update(net.params().data(), g, begin, end);
}

/// Spins until done() holds or ThreadTeam::kSpinWindow has passed, and
/// returns done(). The window is elapsed time, read every few dozen
/// `pause`s, because a `pause` costs from about 10 to 140 cycles depending
/// on the x86 core. Elsewhere it returns done() at once, and the caller
/// blocks.
template <class Done>
bool spin_until(const Done& done) {
#if defined(__x86_64__) || defined(__i386__)
  constexpr int kPausesPerClockRead = 32;
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadTeam::kSpinWindow;
  do {
    for (int i = 0; i < kPausesPerClockRead; ++i) {
      if (done()) return true;
      _mm_pause();
    }
  } while (std::chrono::steady_clock::now() < deadline);
#endif
  return done();
}

}  // namespace

// ---- ThreadTeam -------------------------------------------------------------

ThreadTeam::ThreadTeam(int size) : size_(size) {
  if (size < 1) {
    throw std::invalid_argument("ThreadTeam: size must be >= 1 (got " +
                                std::to_string(size) + ")");
  }
  helpers_.reserve(static_cast<std::size_t>(size - 1));
  try {
    for (int t = 1; t < size; ++t) {
      helpers_.emplace_back([this, t] { helper(t); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

ThreadTeam::~ThreadTeam() { stop(); }

void ThreadTeam::stop() {
  quit_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& h : helpers_) h.join();
}

void ThreadTeam::helper(int t) {
  std::uint32_t seen = 0;
  const auto started = [&] {
    return generation_.load(std::memory_order_acquire) != seen;
  };
  for (;;) {
    if (!spin_until(started)) generation_.wait(seen, std::memory_order_acquire);
    seen = generation_.load(std::memory_order_acquire);
    if (quit_.load(std::memory_order_acquire)) return;
    work(seen, t);
  }
}

void ThreadTeam::work(std::uint32_t generation, int t) {
  std::uint64_t cur = ticket_.load(std::memory_order_acquire);
  for (;;) {
    const auto items = static_cast<int>((cur >> 16) & 0xffff);
    const auto next = static_cast<int>(cur & 0xffff);
    // A newer generation means the run this thread woke for is over.
    const auto current = static_cast<std::uint32_t>(cur >> 32);
    if (current != generation || next >= items) return;
    if (!ticket_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_acquire)) {
      continue;  // cur now holds the ticket's current value
    }
    // The claimed item keeps the run pending, so job_ and call_ stay put.
    call_(job_, next, t);
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      pending_.notify_one();
    }
    cur = ticket_.load(std::memory_order_acquire);
  }
}

void ThreadTeam::run_erased(int items, const void* job, Call call) {
  if (items < 0 || items > kMaxItems) {
    throw std::invalid_argument("ThreadTeam::run: item count " +
                                std::to_string(items) + " out of range");
  }
  if (items == 0) return;
  if (items == 1) {
    call(job, 0, 0);  // nothing to share
    return;
  }
  job_ = job;
  call_ = call;
  pending_.store(items, std::memory_order_relaxed);
  const std::uint32_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  ticket_.store(std::uint64_t{generation} << 32 |
                    static_cast<std::uint64_t>(items) << 16,
                std::memory_order_release);
  generation_.store(generation, std::memory_order_release);
  generation_.notify_all();
  work(generation, 0);
  const auto done = [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  };
  if (spin_until(done)) return;
  for (int n = pending_.load(std::memory_order_acquire); n != 0;
       n = pending_.load(std::memory_order_acquire)) {
    pending_.wait(n, std::memory_order_acquire);
  }
}

int update_team_size() {
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hardware, 1, kUpdateChunk / 16);
}

// ---- PpoUpdate --------------------------------------------------------------

PpoUpdate::PpoUpdate(nn::Mlp& policy, nn::Mlp& value, const PpoConfig& config,
                     ThreadTeam& team)
    : policy_(policy),
      value_(value),
      config_(config),
      team_(team),
      heads_(policy.output_size() / kActions),
      chunk_rows_(std::min(kUpdateChunk, config.minibatch)),
      policy_trace_(policy.batch_trace(chunk_rows_)),
      value_trace_(value.batch_trace(chunk_rows_)),
      probs_(static_cast<std::size_t>(team.size()) *
             static_cast<std::size_t>(policy.output_size())),
      policy_terms_(static_cast<std::size_t>(chunk_rows_)),
      entropy_terms_(static_cast<std::size_t>(chunk_rows_) *
                     static_cast<std::size_t>(heads_)),
      value_terms_(static_cast<std::size_t>(chunk_rows_)) {
  if (policy.input_size() != value.input_size() ||
      policy.output_size() % kActions != 0 || value.output_size() != 1) {
    throw std::invalid_argument(
        "PpoUpdate: the nets do not form a policy/value pair");
  }
  // A gradient row costs its fan-in plus the bias per batch row. Cut the
  // policy's rows, then the value net's, into kGradItems runs of even
  // cost: run i starts at the first row with i / kGradItems of the cost
  // before it.
  std::vector<std::size_t> before{0};  // before[u]: the cost of rows [0, u)
  for (const nn::Mlp* net : {&policy_, &value_}) {
    for (int u = 0; u < net->grad_rows(); ++u) {
      before.push_back(before.back() + 1 +
                       static_cast<std::size_t>(net->grad_row_fan_in(u)));
    }
  }
  const std::size_t total = before.back();
  const std::size_t runs = kGradItems;
  for (std::size_t i = 0; i <= runs; ++i) {
    const std::size_t share = (total * i + runs - 1) / runs;
    const auto at = std::lower_bound(before.begin(), before.end(), share);
    grad_split_.push_back(static_cast<int>(at - before.begin()));
  }

  const std::size_t params = policy.param_count() + value.param_count();
  const std::size_t ranges = kStepItems;
  for (std::size_t i = 0; i <= ranges; ++i) {
    param_split_.push_back(params * i / ranges);
  }
}

UpdateLosses PpoUpdate::run(const UpdateBatch& batch, nn::Adam& opt_policy,
                            nn::Adam& opt_value) {
  UpdateLosses losses;
  const std::size_t n = batch.steps.size();
  const std::size_t minibatch = static_cast<std::size_t>(config_.minibatch);
  const std::size_t chunk = static_cast<std::size_t>(chunk_rows_);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    const std::size_t* order =
        batch.orders.data() + static_cast<std::size_t>(epoch) * n;
    for (std::size_t start = 0; start < n; start += minibatch) {
      const std::size_t stop = std::min(start + minibatch, n);
      const double inv_b = 1.0 / static_cast<double>(stop - start);
      policy_.zero_grad();
      value_.zero_grad();
      for (std::size_t k = start; k < stop; k += chunk) {
        const int rows = static_cast<int>(std::min(chunk, stop - k));
        policy_trace_.rows = rows;
        value_trace_.rows = rows;
        const std::size_t* idx = order + k;
        const int items = (rows + kItemRows - 1) / kItemRows;
        team_.run(items, [&](int item, int t) noexcept {
          rows_item(batch, idx, rows, inv_b, item, t);
        });
        const std::size_t n_rows = static_cast<std::size_t>(rows);
        const std::size_t n_heads = n_rows * static_cast<std::size_t>(heads_);
        for (std::size_t r = 0; r < n_rows; ++r) {
          losses.policy += policy_terms_[r];
        }
        for (std::size_t i = 0; i < n_heads; ++i) {
          losses.entropy += entropy_terms_[i];
        }
        for (std::size_t r = 0; r < n_rows; ++r) {
          losses.value += value_terms_[r];
        }
        team_.run(kGradItems,
                  [&](int item, int) noexcept { grads_item(item); });
      }
      const double policy_scale =
          clip_scale(policy_.grads(), config_.max_grad_norm);
      const double value_scale =
          clip_scale(value_.grads(), config_.max_grad_norm);
      opt_policy.begin_step();
      opt_value.begin_step();
      team_.run(kStepItems, [&](int item, int) noexcept {
        step_item(opt_policy, opt_value, policy_scale, value_scale, item);
      });
    }
  }
  return losses;
}

void PpoUpdate::rows_item(const UpdateBatch& batch, const std::size_t* idx,
                          int rows, double inv_b, int item, int t) {
  const int begin = item * kItemRows;
  const int end = std::min(begin + kItemRows, rows);
  const std::size_t width = static_cast<std::size_t>(policy_.input_size());
  for (int r = begin; r < end; ++r) {
    const std::vector<double>& obs = batch.steps[idx[r]]->obs;
    const std::size_t at = static_cast<std::size_t>(r) * width;
    std::copy(obs.begin(), obs.end(), policy_trace_.input() + at);
    std::copy(obs.begin(), obs.end(), value_trace_.input() + at);
  }
  policy_.forward_rows(policy_trace_, begin, end);
  value_.forward_rows(value_trace_, begin, end);

  // The clipped surrogate and the entropy bonus, per row.
  const std::size_t heads = static_cast<std::size_t>(heads_);
  const std::size_t logit_width = heads * kActions;
  const double* logits = policy_trace_.output();
  double* d_logits = policy_trace_.d_output();
  double* probs = probs_.data() + static_cast<std::size_t>(t) * logit_width;
  std::fill(d_logits + static_cast<std::size_t>(begin) * logit_width,
            d_logits + static_cast<std::size_t>(end) * logit_width, 0.0);
  for (int r = begin; r < end; ++r) {
    const Transition& tr = *batch.steps[idx[r]];
    const double adv = batch.advantages[idx[r]];
    const double* z = logits + static_cast<std::size_t>(r) * logit_width;
    double* dz = d_logits + static_cast<std::size_t>(r) * logit_width;

    double logp_new = 0.0;
    for (int h = 0; h < heads_; ++h) {
      const std::size_t off = static_cast<std::size_t>(h) * kActions;
      nn::softmax_into(z + off, kActions, probs + off);
      logp_new += std::log(std::max(
          probs[off + static_cast<std::size_t>(
                          tr.action[static_cast<std::size_t>(h)])],
          1e-12));
    }
    const double ratio = std::exp(logp_new - tr.logp);
    const double unclipped = ratio * adv;
    const double clipped =
        std::clamp(ratio, 1.0 - config_.clip, 1.0 + config_.clip) * adv;
    policy_terms_[static_cast<std::size_t>(r)] = -std::min(unclipped, clipped);

    // dLoss/dlogp: active only when the unclipped branch is selected.
    const double dlogp = unclipped <= clipped ? -ratio * adv * inv_b : 0.0;

    for (int h = 0; h < heads_; ++h) {
      const std::size_t off = static_cast<std::size_t>(h) * kActions;
      const double ent = nn::entropy(probs + off, kActions);
      entropy_terms_[static_cast<std::size_t>(r) * heads +
                     static_cast<std::size_t>(h)] = ent;
      for (int j = 0; j < kActions; ++j) {
        const double p = probs[off + static_cast<std::size_t>(j)];
        const double onehot =
            tr.action[static_cast<std::size_t>(h)] == j ? 1.0 : 0.0;
        double g = dlogp * (onehot - p);
        // Entropy bonus:
        //   Loss -= c_H * H  =>  dLoss/dz += c_H * p (log p + H).
        g += config_.entropy_coef * inv_b * p *
             (std::log(std::max(p, 1e-12)) + ent);
        dz[off + static_cast<std::size_t>(j)] += g;
      }
    }
  }

  // The value net's squared error, per row.
  const double* v = value_trace_.output();
  double* d_v = value_trace_.d_output();
  for (int r = begin; r < end; ++r) {
    const std::size_t row = static_cast<std::size_t>(r);
    const double err = v[row] - batch.returns[idx[r]];
    value_terms_[row] = 0.5 * err * err;
    d_v[row] = err * inv_b;
  }

  policy_.backward_rows(policy_trace_, begin, end);
  value_.backward_rows(value_trace_, begin, end);
}

void PpoUpdate::grads_item(int item) {
  const int split = policy_.grad_rows();
  const int begin = grad_split_[static_cast<std::size_t>(item)];
  const int end = grad_split_[static_cast<std::size_t>(item) + 1];
  if (begin < split) {
    policy_.accumulate_grads(policy_trace_, begin, std::min(end, split));
  }
  if (end > split) {
    value_.accumulate_grads(value_trace_, std::max(begin, split) - split,
                            end - split);
  }
}

void PpoUpdate::step_item(nn::Adam& opt_policy, nn::Adam& opt_value,
                          double policy_scale, double value_scale, int item) {
  const std::size_t split = policy_.param_count();
  const std::size_t begin = param_split_[static_cast<std::size_t>(item)];
  const std::size_t end = param_split_[static_cast<std::size_t>(item) + 1];
  if (begin < split) {
    step_range(policy_, opt_policy, policy_scale, begin, std::min(end, split));
  }
  if (end > split) {
    step_range(value_, opt_value, value_scale, std::max(begin, split) - split,
               end - split);
  }
}

}  // namespace autockt::rl::detail
