// Tests for the evaluation-backend layer: decorator composition, cache
// hit/miss accounting, failure memoization, serial-vs-batch equivalence,
// PEX corner lanes against a serial corner loop, the corner fold, and a
// multi-threaded cache smoke test.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "circuits/ngm_ota.hpp"
#include "circuits/problems.hpp"
#include "circuits/sizing_problem.hpp"
#include "eval/backend.hpp"
#include "eval/cached_backend.hpp"
#include "eval/function_backend.hpp"
#include "pex/pvt.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

using namespace autockt;
using eval::EvalResult;
using eval::ParamVector;
using eval::SpecVector;

namespace {

/// A counting evaluator: spec0 = sum of indices, spec1 = product-ish. Fails
/// (returns Error) whenever the first index is negative... which valid grid
/// points never are, so failures are injected via a magic value instead.
constexpr int kFailIndex = 666;

std::shared_ptr<eval::FunctionBackend> counting_backend(
    std::shared_ptr<std::atomic<long>> calls) {
  return std::make_shared<eval::FunctionBackend>(
      [calls](const ParamVector& p) -> EvalResult {
        calls->fetch_add(1);
        if (!p.empty() && p[0] == kFailIndex) {
          return util::Error{"injected failure", 7};
        }
        double sum = 0.0;
        for (int x : p) sum += static_cast<double>(x);
        return SpecVector{sum, sum * 0.5};
      },
      "counting");
}

}  // namespace

TEST(EvalStats, MergeAndRates) {
  eval::EvalStats a;
  a.simulations = 10;
  a.cache_hits = 3;
  a.cache_misses = 7;
  a.batch_calls = 2;
  a.batch_points = 8;
  a.max_batch = 6;
  eval::EvalStats b;
  b.simulations = 5;
  b.max_batch = 4;
  eval::EvalStats c = a + b;
  EXPECT_EQ(c.simulations, 15);
  EXPECT_EQ(c.max_batch, 6);  // high-water mark, not a sum
  EXPECT_NEAR(c.cache_hit_rate(), 0.3, 1e-12);
  EXPECT_NEAR(c.mean_batch_size(), 4.0, 1e-12);

  eval::EvalStats delta = c.since(b);
  EXPECT_EQ(delta.simulations, 10);
}

TEST(EvalStats, PendingBatchGaugeTracksInFlightCalls) {
  // The leaf callable observes its own backend mid-batch: exactly one
  // evaluate_batch() must be pending from inside, zero once it returns.
  std::shared_ptr<eval::EvalBackend> backend;
  long seen_inside = -1;
  backend = std::make_shared<eval::FunctionBackend>(
      [&](const ParamVector&) -> EvalResult {
        seen_inside = backend->stats().pending_batches;
        return SpecVector{1.0};
      });
  EXPECT_EQ(backend->stats().pending_batches, 0);
  backend->evaluate_batch({{0}, {1}, {2}});
  EXPECT_EQ(seen_inside, 1);
  EXPECT_EQ(backend->stats().pending_batches, 0);
  // Single-point evaluate() is not a batch and does not touch the gauge.
  backend->evaluate({3});
  EXPECT_EQ(backend->stats().pending_batches, 0);
}

TEST(FunctionBackend, CountsSimulationsAndConvertsExceptions) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto backend = counting_backend(calls);
  auto r = backend->evaluate({1, 2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value()[0], 6.0);
  EXPECT_EQ(backend->stats().simulations, 1);

  eval::FunctionBackend thrower(
      [](const ParamVector&) -> EvalResult {
        throw std::runtime_error("boom");
      },
      "thrower");
  auto bad = thrower.evaluate({0});
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("boom"), std::string::npos);
}

TEST(EvalBackend, DefaultBatchMatchesSerial) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto backend = counting_backend(calls);
  std::vector<ParamVector> points = {{1, 1}, {2, 2}, {3, 3}};
  auto batch = backend->evaluate_batch(points);
  ASSERT_EQ(batch.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    auto serial = backend->evaluate(points[i]);
    ASSERT_TRUE(batch[i].ok());
    EXPECT_EQ(batch[i].value(), serial.value());
  }
  const auto stats = backend->stats();
  EXPECT_EQ(stats.batch_calls, 1);
  EXPECT_EQ(stats.batch_points, 3);
  EXPECT_EQ(stats.max_batch, 3);
}

TEST(CachedBackend, HitMissAccounting) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto cached =
      std::make_shared<eval::CachedBackend>(counting_backend(calls), 4);

  auto first = cached->evaluate({5, 5});
  auto second = cached->evaluate({5, 5});
  auto third = cached->evaluate({6, 6});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), second.value());
  ASSERT_TRUE(third.ok());

  const auto stats = cached->stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.simulations, 2);  // merged from the leaf
  EXPECT_EQ(calls->load(), 2);
  EXPECT_EQ(cached->size(), 2u);

  cached->reset_stats();
  EXPECT_EQ(cached->stats().cache_hits, 0);
  EXPECT_EQ(cached->stats().simulations, 0);
  // reset_stats clears telemetry, not memoized entries.
  EXPECT_EQ(cached->size(), 2u);
}

TEST(CachedBackend, FailuresAreMemoizedToo) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto cached =
      std::make_shared<eval::CachedBackend>(counting_backend(calls), 4);

  auto first = cached->evaluate({kFailIndex});
  auto second = cached->evaluate({kFailIndex});
  ASSERT_FALSE(first.ok());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(first.error().code, 7);
  EXPECT_EQ(second.error().message, first.error().message);
  EXPECT_EQ(calls->load(), 1) << "the failing point must not re-simulate";
  EXPECT_EQ(cached->stats().cache_hits, 1);
}

TEST(CachedBackend, BatchDeduplicatesRepeatedPoints) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto cached =
      std::make_shared<eval::CachedBackend>(counting_backend(calls), 4);

  std::vector<ParamVector> points = {{1}, {2}, {1}, {1}, {3}, {2}};
  auto batch = cached->evaluate_batch(points);
  ASSERT_EQ(batch.size(), 6u);
  EXPECT_EQ(calls->load(), 3) << "only unique points cost a simulation";
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    EXPECT_DOUBLE_EQ(batch[i].value()[0],
                     static_cast<double>(points[i][0]));
  }
  const auto stats = cached->stats();
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_hits, 3);  // duplicates within the batch
}

TEST(PexCornerFold, FirstFailingCornerWinsElseWorstCase) {
  const std::vector<circuits::SpecDef> specs = {
      {"gain", circuits::SpecSense::GreaterEq, 1.0, 2.0, 1.0, 0.0},
      {"noise", circuits::SpecSense::LessEq, 1.0, 2.0, 1.0, 9.0},
  };
  // Three points x three corners, point-major. Point 0 converged at every
  // corner; point 1 failed at corners 1 and 2, point 2 at corners 0 and 2.
  std::vector<EvalResult> lanes;
  lanes.insert(lanes.end(), {SpecVector{3.0, 1.0}, SpecVector{2.0, 4.0},
                             SpecVector{5.0, 2.0}});
  lanes.insert(lanes.end(), {SpecVector{1.0, 1.0},
                             util::Error{"corner 1 failed", 1},
                             util::Error{"corner 2 failed", 2}});
  lanes.insert(lanes.end(), {util::Error{"corner 0 failed", 10},
                             SpecVector{1.0, 1.0},
                             util::Error{"corner 2 failed", 12}});
  const auto folded = circuits::fold_corner_lanes(specs, lanes, 3);
  ASSERT_EQ(folded.size(), 3u);
  ASSERT_TRUE(folded[0].ok());
  EXPECT_EQ(folded[0].value(), (SpecVector{2.0, 4.0}));
  ASSERT_FALSE(folded[1].ok());
  EXPECT_EQ(folded[1].error().code, 1);
  EXPECT_EQ(folded[1].error().message, "corner 1 failed");
  ASSERT_FALSE(folded[2].ok());
  EXPECT_EQ(folded[2].error().code, 10);

  // One corner per point folds each lane to itself.
  const auto single = circuits::fold_corner_lanes(
      specs, {SpecVector{3.0, 1.0}, util::Error{"down", 4}}, 1);
  ASSERT_EQ(single.size(), 2u);
  EXPECT_EQ(single[0].value(), (SpecVector{3.0, 1.0}));
  EXPECT_EQ(single[1].error().code, 4);
}

TEST(CachedBackend, MultiThreadedSmoke) {
  auto calls = std::make_shared<std::atomic<long>>(0);
  auto cached =
      std::make_shared<eval::CachedBackend>(counting_backend(calls), 8);

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        // Overlapping key space across threads forces hit/miss races.
        ParamVector p = {(t + i) % 16, i % 7};
        auto r = cached->evaluate(p);
        const double expect = static_cast<double>((t + i) % 16 + i % 7);
        if (!r.ok() || r.value()[0] != expect) mismatch.store(true);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  const auto stats = cached->stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<long>(kThreads * kIters));
  // At most one simulation per (possibly racing) miss, and no more misses
  // than the number of distinct keys times the worst-case race factor.
  EXPECT_EQ(stats.simulations, calls->load());
  EXPECT_GE(stats.cache_hits, static_cast<long>(kThreads * kIters) -
                                  stats.cache_misses);
}

TEST(SizingProblem, NullBackendYieldsErrorNotCrash) {
  circuits::SizingProblem prob;
  prob.name = "empty";
  auto r = prob.evaluate({1, 2});
  ASSERT_FALSE(r.ok());
  auto batch = prob.evaluate_batch({{1}, {2}});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_FALSE(batch[0].ok());
  EXPECT_EQ(prob.eval_stats().simulations, 0);
}

TEST(SizingProblem, SetEvaluatorShimRoundTrips) {
  auto prob = test_support::make_synthetic_problem();
  ASSERT_TRUE(prob.backend != nullptr);
  auto serial = prob.evaluate(prob.center_params());
  ASSERT_TRUE(serial.ok());
  auto batch = prob.evaluate_batch({prob.center_params()});
  ASSERT_TRUE(batch[0].ok());
  EXPECT_EQ(batch[0].value(), serial.value());
}

namespace {

/// Independent PEX reference: a loop over the PVT corners of one-lane
/// simulate_ngm_ota calls, each corner warm-starting from and refreshing
/// its own hint slot, then worst_case_fold — or the first failing corner's
/// error.
EvalResult pex_serial_loop(const circuits::SizingProblem& prob,
                           const ParamVector& idx, eval::SimHint* hint) {
  const pex::ParasiticModel parasitics = test_support::pex_parasitics();
  const circuits::NgmParams params =
      circuits::ngm_params_from_grid(prob.params, idx);
  const auto corners = pex::standard_corners();
  std::vector<util::Expected<circuits::NgmResult>> results;
  for (std::size_t c = 0; c < corners.size(); ++c) {
    circuits::NgmBuildOptions build;
    build.parasitics = &parasitics;
    build.hint = &hint->slot(c);
    results.push_back(circuits::simulate_ngm_ota(
        params, pex::apply_corner(spice::TechCard::finfet16(), corners[c]),
        build));
  }
  std::vector<SpecVector> specs;
  for (const auto& r : results) {
    if (!r.ok()) return r.error();
    specs.push_back({r->gain, r->ugbw, r->phase_margin});
  }
  return circuits::worst_case_fold(prob.specs, specs);
}

}  // namespace

TEST(Problems, PexCornerLanesMatchSerialCornerLoop) {
  // An uncached batch of K points runs as K x corners lanes of one call;
  // each point must equal the serial corner loop bitwise, leave the same
  // per-corner warm-start slots behind, and cost one simulation per corner.
  circuits::ProblemOptions options;
  options.cache = false;
  const auto prob = circuits::make_ngm_pex_problem(options);
  const std::size_t corners = circuits::ngm_pex_corner_count();
  ASSERT_EQ(corners, pex::standard_corners().size());

  util::Rng rng(1234);
  for (const std::size_t K : {1u, 2u, 5u, 16u}) {
    std::vector<ParamVector> points = {prob.center_params()};
    while (points.size() < K) {
      ParamVector p;
      for (const auto& def : prob.params) {
        p.push_back(static_cast<int>(
            rng.bounded(static_cast<std::uint64_t>(def.grid_size()))));
      }
      points.push_back(std::move(p));
    }
    std::vector<eval::SimHint> lane_hints(K);
    std::vector<eval::SimHint> loop_hints(K);
    std::vector<eval::SimHint*> hint_ptrs;
    for (auto& h : lane_hints) hint_ptrs.push_back(&h);

    // Round 0 starts cold; round 1 warm-starts from round 0's slots.
    for (int round = 0; round < 2; ++round) {
      const std::string what =
          "K=" + std::to_string(K) + " round " + std::to_string(round);
      prob.reset_eval_stats();
      const auto batch = prob.evaluate_batch(points, hint_ptrs);
      ASSERT_EQ(batch.size(), K) << what;
      EXPECT_EQ(prob.eval_stats().simulations,
                static_cast<long>(K * corners))
          << what;
      for (std::size_t i = 0; i < K; ++i) {
        const EvalResult ref = pex_serial_loop(prob, points[i], &loop_hints[i]);
        ASSERT_EQ(batch[i].ok(), ref.ok()) << what << " point " << i;
        if (ref.ok()) {
          EXPECT_EQ(batch[i].value(), ref.value()) << what << " point " << i;
        } else {
          EXPECT_EQ(batch[i].error().message, ref.error().message) << what;
        }
        ASSERT_EQ(lane_hints[i].ops.size(), corners) << what;
        for (std::size_t c = 0; c < corners; ++c) {
          const eval::OpHint& a = lane_hints[i].ops[c];
          const eval::OpHint& b = loop_hints[i].ops[c];
          EXPECT_EQ(a.valid, b.valid) << what << " point " << i << " c" << c;
          EXPECT_EQ(a.node_v, b.node_v) << what << " point " << i << " c" << c;
          EXPECT_EQ(a.branch_i, b.branch_i)
              << what << " point " << i << " c" << c;
        }
      }
    }
  }
}

/// Pin the stat-dump surface: fields() must name every public EvalStats
/// field (in declaration order) and summary() must print every one of
/// them. A new field that is added to the struct but forgotten in fields()
/// — and therefore missing from trainer/deploy dumps, bench snapshots and
/// the OBSERVABILITY.md glossary — fails here.
TEST(EvalStats, FieldsAndSummaryNameEveryPublicField) {
  const std::vector<std::string> expected = {
      "simulations",
      "cache_hits",
      "cache_misses",
      "batch_calls",
      "batch_points",
      "max_batch",
      "pending_batches",
      "sim_seconds",
      "newton_iterations",
      "symbolic_factorizations",
      "numeric_factorizations",
      "dense_fallbacks",
      "warm_start_attempts",
      "warm_start_hits",
      "batch_refactorizations",
      "disk_hits",
      "disk_appends",
      "worker_dispatches",
      "worker_retries",
      "worker_restarts",
  };
  const eval::EvalStats stats;
  const auto fields = stats.fields();
  ASSERT_EQ(fields.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fields[i].first, expected[i]) << "fields()[" << i << "]";
  }
  const std::string summary = stats.summary();
  for (const auto& name : expected) {
    EXPECT_NE(summary.find(name + "="), std::string::npos)
        << "summary() does not print " << name;
  }
  // The derived ratios ride along in every dump.
  EXPECT_NE(summary.find("cache_hit_rate="), std::string::npos);
  EXPECT_NE(summary.find("warm_start_hit_rate="), std::string::npos);
}

TEST(EvalStats, FieldsReflectValues) {
  eval::EvalStats stats;
  stats.simulations = 7;
  stats.pending_batches = 2;
  stats.dense_fallbacks = 3;
  stats.warm_start_attempts = 5;
  stats.sim_seconds = 1.5;
  std::map<std::string, double> by_name;
  for (const auto& [name, value] : stats.fields()) by_name[name] = value;
  EXPECT_DOUBLE_EQ(by_name["simulations"], 7.0);
  EXPECT_DOUBLE_EQ(by_name["pending_batches"], 2.0);
  EXPECT_DOUBLE_EQ(by_name["dense_fallbacks"], 3.0);
  EXPECT_DOUBLE_EQ(by_name["warm_start_attempts"], 5.0);
  EXPECT_DOUBLE_EQ(by_name["sim_seconds"], 1.5);
}
