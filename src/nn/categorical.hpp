#pragma once
// Categorical-distribution helpers for the factored multi-discrete policy
// head: each circuit parameter gets an independent 3-way (decrement / hold /
// increment) softmax over a slice of the policy network's output.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace autockt::nn {

/// Numerically stable softmax of logits[0, k) into probs[0, k).
inline void softmax_into(const double* logits, std::size_t k, double* probs) {
  double max_logit = logits[0];
  for (std::size_t i = 1; i < k; ++i) {
    max_logit = std::max(max_logit, logits[i]);
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    probs[i] = std::exp(logits[i] - max_logit);
    sum += probs[i];
  }
  for (std::size_t i = 0; i < k; ++i) probs[i] /= sum;
}

/// Numerically stable softmax of logits[offset, offset+k).
inline std::vector<double> softmax_slice(const std::vector<double>& logits,
                                         std::size_t offset, std::size_t k) {
  std::vector<double> probs(k);
  softmax_into(logits.data() + offset, k, probs.data());
  return probs;
}

inline int sample_categorical(const double* probs, std::size_t k,
                              util::Rng& rng) {
  const double u = rng.uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    acc += probs[i];
    if (u < acc) return static_cast<int>(i);
  }
  return static_cast<int>(k) - 1;
}

inline int sample_categorical(const std::vector<double>& probs,
                              util::Rng& rng) {
  return sample_categorical(probs.data(), probs.size(), rng);
}

inline int argmax(const double* probs, std::size_t k) {
  int best = 0;
  for (std::size_t i = 1; i < k; ++i) {
    if (probs[i] > probs[static_cast<std::size_t>(best)]) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

inline int argmax(const std::vector<double>& probs) {
  return argmax(probs.data(), probs.size());
}

inline double entropy(const double* probs, std::size_t k) {
  double h = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    if (probs[i] > 1e-12) h -= probs[i] * std::log(probs[i]);
  }
  return h;
}

inline double entropy(const std::vector<double>& probs) {
  return entropy(probs.data(), probs.size());
}

// ---- batched factored heads -------------------------------------------------
// Helpers over a batch of logit rows (as produced by Mlp::forward_batch):
// each row holds `heads` contiguous k-way slices. Row r draws from its own
// RNG stream, so batched sampling is bitwise-identical to per-row
// sample_categorical() loops on the same streams.

/// Sample one action per head for each row. `logits` is rows x (heads * k)
/// row-major; rngs[r] drives row r. Returns rows x heads actions row-major;
/// when `logps` is non-null it receives the per-row summed log-probability.
inline std::vector<int> sample_heads_batch(const std::vector<double>& logits,
                                           int rows, int heads, int k,
                                           const std::vector<util::Rng*>& rngs,
                                           std::vector<double>* logps) {
  std::vector<int> actions(static_cast<std::size_t>(rows) *
                           static_cast<std::size_t>(heads));
  if (logps) logps->assign(static_cast<std::size_t>(rows), 0.0);
  const std::size_t kk = static_cast<std::size_t>(k);
  const std::size_t stride = static_cast<std::size_t>(heads) * kk;
  std::vector<double> probs(kk);  // one head's softmax, reused
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    double logp = 0.0;
    for (int h = 0; h < heads; ++h) {
      const std::size_t off = r * stride + static_cast<std::size_t>(h) * kk;
      softmax_into(logits.data() + off, kk, probs.data());
      const int a = sample_categorical(probs.data(), kk, *rngs[r]);
      actions[r * static_cast<std::size_t>(heads) +
              static_cast<std::size_t>(h)] = a;
      logp += std::log(std::max(probs[static_cast<std::size_t>(a)], 1e-12));
    }
    if (logps) (*logps)[r] = logp;
  }
  return actions;
}

/// Per-head argmax for each row; shapes as in sample_heads_batch().
inline std::vector<int> argmax_heads_batch(const std::vector<double>& logits,
                                           int rows, int heads, int k) {
  std::vector<int> actions(static_cast<std::size_t>(rows) *
                           static_cast<std::size_t>(heads));
  const std::size_t kk = static_cast<std::size_t>(k);
  const std::size_t stride = static_cast<std::size_t>(heads) * kk;
  std::vector<double> probs(kk);  // one head's softmax, reused
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
    for (int h = 0; h < heads; ++h) {
      const std::size_t off = r * stride + static_cast<std::size_t>(h) * kk;
      softmax_into(logits.data() + off, kk, probs.data());
      actions[r * static_cast<std::size_t>(heads) +
              static_cast<std::size_t>(h)] = argmax(probs.data(), kk);
    }
  }
  return actions;
}

}  // namespace autockt::nn
