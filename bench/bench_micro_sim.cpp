// Micro-benchmarks for the simulator substrate: LU solves, DC operating
// points, AC sweeps, and full problem evaluations — plus the
// characterization comparisons the CI bench-smoke step archives as JSON:
// cold vs env-style warm-started Newton over repeated characterization of a
// fixed topology (exactly the RL trajectory workload), and K-lane batches.
// Not a paper experiment — these bound the wall-clock of everything else
// (one RL environment step is one full evaluation).
//
// JSON: pass --benchmark_out=<file> --benchmark_out_format=json (what CI's
// bench-smoke step does).

#include <benchmark/benchmark.h>

#include "circuits/ngm_ota.hpp"
#include "circuits/problems.hpp"
#include "circuits/tia.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "eval/types.hpp"
#include "linalg/lu.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/workspace.hpp"
#include "util/rng.hpp"

using namespace autockt;

/// Full-eval benches measure the raw simulator: strip the memo cache and
/// fan-out layers the factories add by default (bench_micro_eval_cache
/// measures those).
static circuits::ProblemOptions raw_options() {
  circuits::ProblemOptions options;
  options.cache = false;
  options.parallel_batch = false;
  options.parallel_corners = false;
  return options;
}

static void BM_LuSolveReal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  linalg::RealMatrix a(n, n);
  std::vector<double> b(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += static_cast<double>(n);  // diagonally dominant
    b[r] = rng.uniform(-1.0, 1.0);
  }
  for (auto _ : state) {
    linalg::LuFactorization<double> lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuSolveReal)->Arg(8)->Arg(16)->Arg(32);

static void BM_TwoStageDcOp(benchmark::State& state) {
  const auto card = spice::TechCard::ptm45();
  const circuits::TwoStageParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::simulate_two_stage(params, card).ok());
  }
}
BENCHMARK(BM_TwoStageDcOp);

// ---- cold vs warm-started characterization ----------------------------------
// Repeated characterization of a FIXED topology with a slowly walking width
// — the RL rollout workload. Both variants reuse one symbolic factorization
// per topology; the warm one additionally seeds Newton with the previous
// design's operating point, like a SizingEnv step does.

namespace {

template <typename Params, typename Build, typename Sim>
void repeated_characterization(benchmark::State& state, Params params,
                               Build&& perturb, Sim&& sim) {
  const bool warm = state.range(0) != 0;
  eval::OpHint hint;
  int i = 0;
  for (auto _ : state) {
    Params p = params;
    perturb(p, i++);
    typename std::remove_reference_t<Sim>::Options opt;
    opt.hint = warm ? &hint : nullptr;
    benchmark::DoNotOptimize(sim.run(p, opt));
  }
}

struct TwoStageSim {
  using Options = circuits::OpampBuildOptions;
  spice::TechCard card = spice::TechCard::ptm45();
  bool run(const circuits::TwoStageParams& p, const Options& opt) const {
    return circuits::simulate_two_stage(p, card, opt).ok();
  }
};

struct TiaSim {
  using Options = circuits::TiaBuildOptions;
  spice::TechCard card = spice::TechCard::ptm45();
  bool run(const circuits::TiaParams& p, const Options& opt) const {
    return circuits::simulate_tia(p, card, opt).ok();
  }
};

}  // namespace

/// Arg 0: 0 = cold start, 1 = warm start.
static void BM_TwoStageCharacterize_Kernel(benchmark::State& state) {
  repeated_characterization(
      state, circuits::TwoStageParams{},
      [](circuits::TwoStageParams& p, int i) {
        p.w12 = (10.0 + 0.25 * (i % 8)) * 1e-6;  // +-1-grid-step walk
      },
      TwoStageSim{});
}
BENCHMARK(BM_TwoStageCharacterize_Kernel)->Arg(0)->Arg(1);

static void BM_TiaCharacterize_Kernel(benchmark::State& state) {
  repeated_characterization(
      state, circuits::TiaParams{},
      [](circuits::TiaParams& p, int i) { p.mn = 8 + (i % 4); },
      TiaSim{});
}
BENCHMARK(BM_TiaCharacterize_Kernel)->Arg(0)->Arg(1);

// ---- batched characterization: K lanes through SparseLuNumericBatch --------
// Items/sec counts DESIGNS, so these read directly against the one-lane
// warm rows above: the batch win is the items/sec ratio. Arg is the lane
// count.

static void BM_TwoStageCharacterize_Batch(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const spice::TechCard card = spice::TechCard::ptm45();
  std::vector<eval::OpHint> hints(static_cast<std::size_t>(lanes));
  std::vector<eval::OpHint*> hint_ptrs;
  for (auto& h : hints) hint_ptrs.push_back(&h);
  std::vector<circuits::TwoStageParams> params(
      static_cast<std::size_t>(lanes));
  int i = 0;
  for (auto _ : state) {
    for (int l = 0; l < lanes; ++l) {
      params[static_cast<std::size_t>(l)].w12 =
          (10.0 + 0.25 * ((i + l) % 8)) * 1e-6;
    }
    ++i;
    benchmark::DoNotOptimize(
        circuits::simulate_two_stage_batch(params, card, {}, hint_ptrs)
            .data());
  }
  state.SetItemsProcessed(state.iterations() * lanes);
}
BENCHMARK(BM_TwoStageCharacterize_Batch)->Arg(4)->Arg(16)->Arg(64);

static void BM_TiaCharacterize_Batch(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const spice::TechCard card = spice::TechCard::ptm45();
  std::vector<eval::OpHint> hints(static_cast<std::size_t>(lanes));
  std::vector<eval::OpHint*> hint_ptrs;
  for (auto& h : hints) hint_ptrs.push_back(&h);
  std::vector<circuits::TiaParams> params(static_cast<std::size_t>(lanes));
  int i = 0;
  for (auto _ : state) {
    for (int l = 0; l < lanes; ++l) {
      params[static_cast<std::size_t>(l)].mn = 8 + ((i + l) % 4);
    }
    ++i;
    benchmark::DoNotOptimize(
        circuits::simulate_tia_batch(params, card, {}, hint_ptrs).data());
  }
  state.SetItemsProcessed(state.iterations() * lanes);
}
BENCHMARK(BM_TiaCharacterize_Batch)->Arg(4)->Arg(16)->Arg(64);

static void BM_FullEval_Tia(benchmark::State& state) {
  const auto prob = circuits::make_tia_problem(raw_options());
  const auto center = prob.center_params();
  for (auto _ : state) benchmark::DoNotOptimize(prob.evaluate(center).ok());
}
BENCHMARK(BM_FullEval_Tia);

static void BM_FullEval_TwoStage(benchmark::State& state) {
  const auto prob = circuits::make_two_stage_problem(raw_options());
  const auto center = prob.center_params();
  for (auto _ : state) benchmark::DoNotOptimize(prob.evaluate(center).ok());
}
BENCHMARK(BM_FullEval_TwoStage);

static void BM_FullEval_Ngm(benchmark::State& state) {
  const auto prob = circuits::make_ngm_problem(raw_options());
  const auto center = prob.center_params();
  for (auto _ : state) benchmark::DoNotOptimize(prob.evaluate(center).ok());
}
BENCHMARK(BM_FullEval_Ngm);

static void BM_FullEval_NgmPex(benchmark::State& state) {
  const auto prob = circuits::make_ngm_pex_problem(raw_options());
  const auto center = prob.center_params();
  for (auto _ : state) benchmark::DoNotOptimize(prob.evaluate(center).ok());
}
BENCHMARK(BM_FullEval_NgmPex);

BENCHMARK_MAIN();
