#include "baselines/ga_ml.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/batch_eval.hpp"
#include "nn/mlp.hpp"

namespace autockt::baselines {

using circuits::ParamVector;
using circuits::SizingProblem;
using circuits::SpecVector;
using detail::Individual;

namespace {

std::vector<double> features(const SizingProblem& problem,
                             const ParamVector& genes) {
  std::vector<double> x;
  x.reserve(genes.size());
  for (std::size_t i = 0; i < genes.size(); ++i) {
    const int hi = problem.params[i].grid_size() - 1;
    x.push_back(hi == 0 ? 0.0
                        : 2.0 * static_cast<double>(genes[i]) /
                                  static_cast<double>(hi) -
                              1.0);
  }
  return x;
}

/// Logistic-regression-style training: y in {0,1}, single logit output,
/// loss = softplus(z) - y*z, dL/dz = sigmoid(z) - y.
void train_discriminator(nn::Mlp& disc, nn::Adam& opt,
                         const std::vector<std::vector<double>>& xs,
                         const std::vector<double>& ys, int epochs,
                         util::Rng& rng) {
  if (xs.empty()) return;
  std::vector<std::size_t> order(xs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  constexpr int kBatch = 32;
  // Each minibatch runs as one batch pass; backward_batch adds its rows'
  // gradients in row order, as a row-at-a-time loop would.
  const std::size_t width = static_cast<std::size_t>(disc.input_size());
  nn::Mlp::BatchTrace trace = disc.batch_trace(kBatch);
  std::vector<double> x(kBatch * width);
  std::vector<double> d_out(kBatch);
  for (int e = 0; e < epochs; ++e) {
    for (std::size_t i = order.size(); i-- > 1;) {
      std::swap(order[i], order[rng.bounded(i + 1)]);
    }
    for (std::size_t start = 0; start < order.size(); start += kBatch) {
      const std::size_t stop = std::min(start + kBatch, order.size());
      const int rows = static_cast<int>(stop - start);
      const double inv_b = 1.0 / static_cast<double>(rows);
      for (int r = 0; r < rows; ++r) {
        const std::vector<double>& xr = xs[order[start + r]];
        std::copy(xr.begin(), xr.end(), x.begin() + r * width);
      }
      disc.zero_grad();
      disc.forward_trace_batch(x.data(), rows, trace);
      for (int r = 0; r < rows; ++r) {
        const double z = trace.output()[r];
        const double sig = 1.0 / (1.0 + std::exp(-z));
        d_out[r] = (sig - ys[order[start + r]]) * inv_b;
      }
      disc.backward_batch(trace, d_out.data());
      opt.step(disc.params(), disc.grads());
    }
  }
}

}  // namespace

GaResult run_ga_ml(const SizingProblem& problem, const SpecVector& target,
                   const GaMlConfig& config) {
  util::Rng rng(config.seed);
  GaResult result;

  // Discriminator over normalized parameter vectors.
  nn::Mlp disc({static_cast<int>(problem.params.size()), config.disc_hidden,
                config.disc_hidden, 1},
               nn::Activation::Tanh, config.seed * 31 + 5);
  nn::Adam opt(disc.param_count(), config.disc_lr);

  // Dataset of every individual actually simulated.
  std::vector<std::vector<double>> data_x;
  std::vector<double> data_fitness;

  // Candidate rankings simulate through evaluate_batch() but score under
  // the serial protocol (see batch_eval.hpp); every scored individual also
  // lands in the discriminator's dataset, in processing order.
  detail::SerialProtocolEvaluator evaluator(
      problem, target, config.ga.max_evals, result,
      [&](const Individual& ind) {
        data_x.push_back(features(problem, ind.genes));
        data_fitness.push_back(ind.fitness);
      });

  const GaConfig& ga = config.ga;
  std::vector<Individual> population(static_cast<std::size_t>(ga.population));
  for (auto& ind : population) {
    ind.genes.reserve(problem.params.size());
    for (const auto& def : problem.params) {
      ind.genes.push_back(static_cast<int>(
          rng.bounded(static_cast<std::uint64_t>(def.grid_size()))));
    }
  }
  const std::size_t init_count =
      std::min(population.size(),
               static_cast<std::size_t>(evaluator.remaining_budget()));
  if (evaluator.evaluate_group(population, init_count)) return result;

  auto tournament_pick = [&]() -> const Individual& {
    const Individual* best = nullptr;
    for (int k = 0; k < ga.tournament; ++k) {
      const Individual& cand = population[rng.bounded(population.size())];
      if (best == nullptr || cand.fitness > best->fitness) best = &cand;
    }
    return *best;
  };

  while (result.total_evals < ga.max_evals) {
    // Label the dataset: "good" = beats the current population median.
    std::vector<double> fits;
    fits.reserve(population.size());
    for (const auto& ind : population) fits.push_back(ind.fitness);
    std::nth_element(fits.begin(), fits.begin() + fits.size() / 2, fits.end());
    const double median = fits[fits.size() / 2];
    std::vector<double> labels;
    labels.reserve(data_fitness.size());
    for (double f : data_fitness) labels.push_back(f > median ? 1.0 : 0.0);
    train_discriminator(disc, opt, data_x, labels, config.disc_epochs, rng);

    // Generate a large candidate pool, but simulate only the discriminator's
    // top picks — the BagNet economy.
    const std::size_t pool_size =
        population.size() * static_cast<std::size_t>(config.candidate_factor);
    std::vector<ParamVector> pool;
    pool.reserve(pool_size);
    std::vector<double> feature_rows;
    feature_rows.reserve(pool_size * problem.params.size());
    for (std::size_t c = 0; c < pool_size; ++c) {
      ParamVector genes = tournament_pick().genes;
      const Individual& pb = tournament_pick();
      if (rng.bernoulli(ga.crossover_prob)) {
        for (std::size_t i = 0; i < genes.size(); ++i) {
          if (rng.bernoulli(0.5)) genes[i] = pb.genes[i];
        }
      }
      for (std::size_t i = 0; i < genes.size(); ++i) {
        if (!rng.bernoulli(ga.mutation_prob)) continue;
        const int hi = problem.params[i].grid_size() - 1;
        if (rng.bernoulli(ga.local_jitter_prob)) {
          const int jitter = static_cast<int>(rng.uniform_int(1, 3)) *
                             (rng.bernoulli(0.5) ? 1 : -1);
          genes[i] = std::clamp(genes[i] + jitter, 0, hi);
        } else {
          genes[i] = static_cast<int>(
              rng.bounded(static_cast<std::uint64_t>(hi + 1)));
        }
      }
      const auto x = features(problem, genes);
      feature_rows.insert(feature_rows.end(), x.begin(), x.end());
      pool.push_back(std::move(genes));
    }
    // Rank the whole pool with one batched discriminator pass (the
    // DNN-Opt lesson: batching network queries is what makes NN-in-the-
    // loop sizing fast); row i equals disc.forward(features(pool[i]))
    // bitwise, so rankings are unchanged.
    const std::vector<double> scores =
        disc.forward_batch(feature_rows, static_cast<int>(pool.size()));

    std::vector<std::size_t> order(pool.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scores[a] > scores[b];
    });
    const std::size_t to_sim = std::max<std::size_t>(
        1, static_cast<std::size_t>(config.sim_fraction *
                                    static_cast<double>(pool.size())));

    // The discriminator's top picks get simulated as one batch — the
    // BagNet economy, now also the backend's natural fan-out unit.
    std::vector<Individual> evaluated;
    const std::size_t sim_count = std::min(
        to_sim, static_cast<std::size_t>(evaluator.remaining_budget()));
    evaluated.reserve(sim_count);
    for (std::size_t k = 0; k < sim_count; ++k) {
      Individual child;
      child.genes = pool[order[k]];
      evaluated.push_back(std::move(child));
    }
    if (evaluator.evaluate_group(evaluated, evaluated.size())) return result;

    // Survivor selection over parents + newly simulated children.
    for (auto& ind : evaluated) population.push_back(std::move(ind));
    std::sort(population.begin(), population.end(),
              [](const Individual& a, const Individual& b) {
                return a.fitness > b.fitness;
              });
    population.resize(static_cast<std::size_t>(ga.population));
  }
  return result;
}

}  // namespace autockt::baselines
