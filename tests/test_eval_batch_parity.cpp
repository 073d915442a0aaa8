// Batch-vs-scalar parity: the one numeric kernel and everything built on
// it (lockstep DC Newton, batched AC/noise sweeps, the lane pipeline of
// every circuit and deck, the VectorSizingEnv path) must return results
// identical to the scalar elimination — batching changes wall-clock, never
// values. At the kernel level every lane, one-lane passes included, is
// compared with the scalar reference kernel kept in
// tests/scalar_lu_reference.hpp; every layer above the spice entry points
// compares K lanes with one-lane calls. These tests pin the serial-exact
// contract at every layer, including ragged batch sizes and lanes that fail
// the per-lane pivot check.

#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "circuits/netlist_problem.hpp"
#include "circuits/ngm_ota.hpp"
#include "circuits/problems.hpp"
#include "circuits/tia.hpp"
#include "circuits/two_stage_opamp.hpp"
#include "env/sizing_env.hpp"
#include "env/vector_env.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "pex/pvt.hpp"
#include "scalar_lu_reference.hpp"
#include "spice/ac.hpp"
#include "spice/dc.hpp"
#include "spice/noise.hpp"
#include "spice/workspace.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

using namespace autockt;
using autockt::util::Rng;

namespace {

// ---- linalg-level helpers (mirrors test_linalg.cpp's generator) -----------

struct SparseSystem {
  linalg::SparsePattern pattern;
  std::vector<std::pair<int, int>> coords;  // by slot
};

SparseSystem make_sparse_system(int n, double density, Rng& rng) {
  linalg::PatternBuilder b(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    b.add(static_cast<std::size_t>(r), static_cast<std::size_t>(r));
    for (int c = 0; c < n; ++c) {
      if (c != r && rng.uniform(0.0, 1.0) < density) {
        b.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      }
    }
  }
  SparseSystem sys{linalg::SparsePattern(std::move(b)), {}};
  sys.coords.resize(sys.pattern.nnz());
  for (std::size_t s = 0; s < sys.pattern.nnz(); ++s) {
    sys.coords[s] = {sys.pattern.row_of_slot(s), sys.pattern.col_of_slot(s)};
  }
  return sys;
}

template <typename T>
std::vector<T> random_values(const SparseSystem& sys, int n, Rng& rng) {
  std::vector<T> vals(sys.pattern.nnz());
  for (std::size_t s = 0; s < sys.pattern.nnz(); ++s) {
    const auto [r, c] = sys.coords[s];
    double v = rng.uniform(-1.0, 1.0);
    if (r == c) v += static_cast<double>(n);
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      vals[s] = {v, rng.uniform(-1.0, 1.0)};
    } else {
      vals[s] = v;
    }
  }
  return vals;
}

}  // namespace

// ---- SparseLuNumericBatch vs the scalar reference kernel: bitwise -----------

class BatchLuParity : public ::testing::TestWithParam<int> {};

TEST_P(BatchLuParity, RefactorAndSolvesMatchScalarBitwise) {
  const int K = GetParam();  // ragged lane counts, incl. non-powers-of-2
  const int n = 17;
  Rng rng(9000 + static_cast<std::uint64_t>(K));
  SparseSystem sys = make_sparse_system(n, 0.3, rng);
  linalg::SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
  ASSERT_TRUE(symbolic.ok());

  const std::size_t nnz = sys.pattern.nnz();
  const std::size_t N = static_cast<std::size_t>(n);
  const std::size_t lanes = static_cast<std::size_t>(K);

  // Per-lane value sets, interleaved into the SoA layout the batch expects.
  std::vector<std::vector<double>> lane_vals;
  std::vector<double> soa_vals(nnz * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    lane_vals.push_back(random_values<double>(sys, n, rng));
    for (std::size_t s = 0; s < nnz; ++s) {
      soa_vals[s * lanes + l] = lane_vals[l][s];
    }
  }
  std::vector<double> rhs(N), soa_rhs(N * lanes);
  for (std::size_t i = 0; i < N; ++i) {
    rhs[i] = rng.uniform(-2.0, 2.0);
    for (std::size_t l = 0; l < lanes; ++l) soa_rhs[i * lanes + l] = rhs[i];
  }

  linalg::SparseLuNumericBatch<double> batch(symbolic, lanes);
  std::vector<unsigned char> lane_ok(lanes, 0);
  batch.refactor(soa_vals.data(), lane_ok.data());

  linalg::ScalarLuReference<double> scalar(symbolic);
  std::vector<double> x(N), xt(N), bx(N * lanes), bxt(N * lanes);
  batch.solve(soa_rhs.data(), bx.data());
  batch.solve_transposed(soa_rhs.data(), bxt.data());
  for (std::size_t l = 0; l < lanes; ++l) {
    ASSERT_TRUE(scalar.refactor(lane_vals[l].data())) << "lane " << l;
    EXPECT_EQ(lane_ok[l], 1) << "lane " << l;
    scalar.solve(rhs.data(), x.data());
    scalar.solve_transposed(rhs.data(), xt.data());
    for (std::size_t i = 0; i < N; ++i) {
      // Bitwise: the batch replays the same elimination program with the
      // same per-lane operand order the scalar kernel uses.
      EXPECT_EQ(bx[i * lanes + l], x[i]) << "lane " << l << " row " << i;
      EXPECT_EQ(bxt[i * lanes + l], xt[i]) << "lane " << l << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, BatchLuParity,
                         ::testing::Values(1, 3, 7, 16));

TEST(BatchLuParity, ComplexLanesMatchScalarBitwise) {
  // One lane included: its split-complex arithmetic must be bitwise the
  // scalar kernel's std::complex arithmetic.
  using C = std::complex<double>;
  const int n = 11;
  for (const std::size_t lanes : {1, 2, 5, 16}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    Rng rng(9100);
    SparseSystem sys = make_sparse_system(n, 0.35, rng);
    linalg::SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
    ASSERT_TRUE(symbolic.ok());
    const std::size_t nnz = sys.pattern.nnz();
    const std::size_t N = static_cast<std::size_t>(n);

    std::vector<std::vector<C>> lane_vals;
    std::vector<C> soa_vals(nnz * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      lane_vals.push_back(random_values<C>(sys, n, rng));
      for (std::size_t s = 0; s < nnz; ++s) {
        soa_vals[s * lanes + l] = lane_vals[l][s];
      }
    }
    std::vector<C> rhs(N), soa_rhs(N * lanes);
    for (std::size_t i = 0; i < N; ++i) {
      rhs[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      for (std::size_t l = 0; l < lanes; ++l) soa_rhs[i * lanes + l] = rhs[i];
    }

    linalg::SparseLuNumericBatch<C> batch(symbolic, lanes);
    std::vector<unsigned char> lane_ok(lanes, 0);
    batch.refactor(soa_vals.data(), lane_ok.data());
    std::vector<C> bx(N * lanes), bxt(N * lanes);
    batch.solve(soa_rhs.data(), bx.data());
    batch.solve_transposed(soa_rhs.data(), bxt.data());

    linalg::ScalarLuReference<C> scalar(symbolic);
    std::vector<C> x(N), xt(N);
    for (std::size_t l = 0; l < lanes; ++l) {
      ASSERT_TRUE(scalar.refactor(lane_vals[l].data()));
      EXPECT_EQ(lane_ok[l], 1);
      scalar.solve(rhs.data(), x.data());
      scalar.solve_transposed(rhs.data(), xt.data());
      for (std::size_t i = 0; i < N; ++i) {
        EXPECT_EQ(bx[i * lanes + l], x[i]) << "lane " << l << " row " << i;
        EXPECT_EQ(bxt[i * lanes + l], xt[i]) << "lane " << l << " row " << i;
      }
    }
  }
}

TEST(BatchLuParity, SingularLaneFailsAloneAndLeavesOthersBitwise) {
  // Lane 1 of 3 carries a numerically rank-1 matrix: its pivot check must
  // fail exactly as the scalar kernel's does, without perturbing the
  // healthy lanes (the mixed-lane guarded update path).
  const int n = 6;
  const std::size_t lanes = 3;
  Rng rng(9200);
  SparseSystem sys = make_sparse_system(n, 0.4, rng);
  linalg::SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
  ASSERT_TRUE(symbolic.ok());
  const std::size_t nnz = sys.pattern.nnz();
  const std::size_t N = static_cast<std::size_t>(n);

  std::vector<std::vector<double>> lane_vals(lanes);
  lane_vals[0] = random_values<double>(sys, n, rng);
  lane_vals[1].assign(nnz, 0.0);  // all-zero matrix: structurally fine,
                                  // numerically singular in every pivot
  lane_vals[2] = random_values<double>(sys, n, rng);
  std::vector<double> soa_vals(nnz * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t s = 0; s < nnz; ++s) {
      soa_vals[s * lanes + l] = lane_vals[l][s];
    }
  }
  std::vector<double> rhs(N), soa_rhs(N * lanes);
  for (std::size_t i = 0; i < N; ++i) {
    rhs[i] = rng.uniform(-2.0, 2.0);
    for (std::size_t l = 0; l < lanes; ++l) soa_rhs[i * lanes + l] = rhs[i];
  }

  linalg::SparseLuNumericBatch<double> batch(symbolic, lanes);
  std::vector<unsigned char> lane_ok(lanes, 2);
  batch.refactor(soa_vals.data(), lane_ok.data());
  EXPECT_EQ(lane_ok[0], 1);
  EXPECT_EQ(lane_ok[1], 0);
  EXPECT_EQ(lane_ok[2], 1);

  std::vector<double> bx(N * lanes);
  batch.solve(soa_rhs.data(), bx.data());
  linalg::ScalarLuReference<double> scalar(symbolic);
  std::vector<double> x(N);
  for (const std::size_t l : {std::size_t{0}, std::size_t{2}}) {
    ASSERT_TRUE(scalar.refactor(lane_vals[l].data()));
    scalar.solve(rhs.data(), x.data());
    for (std::size_t i = 0; i < N; ++i) {
      EXPECT_EQ(bx[i * lanes + l], x[i]) << "lane " << l << " row " << i;
    }
  }
  EXPECT_FALSE(scalar.refactor(lane_vals[1].data()));
}

// ---- spice-level: one design is a one-lane pass of the one kernel ----------

namespace {

/// A TIA build and a workspace of its topology, plus the converged
/// operating point the sweeps run around.
struct TiaFixture {
  spice::Circuit ckt =
      circuits::build_tia(circuits::TiaParams{}, spice::TechCard::ptm45());
  spice::SimWorkspace ws{ckt};
  spice::NodeId out = ckt.node("out");
};

void expect_same_error(const util::Error& a, const util::Error& b,
                       const std::string& what) {
  EXPECT_EQ(a.message, b.message) << what;
  EXPECT_EQ(a.code, b.code) << what;
}

/// Kernel counts added since `before` (this thread's calls have returned,
/// so their tallies are in).
spice::KernelStats counts_since(const spice::KernelStats& before) {
  spice::KernelStats d = spice::kernel_stats_snapshot();
  d.newton_iterations -= before.newton_iterations;
  d.symbolic_factorizations -= before.symbolic_factorizations;
  d.numeric_factorizations -= before.numeric_factorizations;
  d.dense_fallbacks -= before.dense_fallbacks;
  d.warm_start_attempts -= before.warm_start_attempts;
  d.warm_start_hits -= before.warm_start_hits;
  d.batch_refactorizations -= before.batch_refactorizations;
  return d;
}

}  // namespace

TEST(OneLaneBatch, DcIsTheScalarSolveBitwise) {
  // solve_op() is a one-lane solve_op_batch(): each Newton iteration is one
  // kernel pass of one lane. A two-lane batch of the same design runs the
  // same passes with two lanes each, and both lanes carry the one-lane bits.
  TiaFixture f;
  spice::DcOptions opt;
  opt.workspace = &f.ws;
  const auto scalar = spice::solve_op(f.ckt, opt);
  ASSERT_TRUE(scalar.ok());
  // Warm-started from the cold answer, too: stage 0 must also be shared.
  spice::DcOptions warm = opt;
  warm.warm_start = &*scalar;
  for (const spice::DcOptions& o : {opt, warm}) {
    const long warm_attempts = o.warm_start != nullptr ? 1 : 0;
    spice::KernelStats before = spice::kernel_stats_snapshot();
    const auto one = spice::solve_op_batch({&f.ckt}, {o}, f.ws);
    const spice::KernelStats d1 = counts_since(before);
    ASSERT_EQ(one.size(), 1u);
    ASSERT_TRUE(one[0].ok());
    EXPECT_GT(d1.newton_iterations, 0);
    EXPECT_EQ(d1.numeric_factorizations, d1.newton_iterations);
    EXPECT_EQ(d1.batch_refactorizations, d1.newton_iterations);
    EXPECT_EQ(d1.dense_fallbacks, 0);
    EXPECT_EQ(d1.warm_start_attempts, warm_attempts);
    EXPECT_EQ(d1.warm_start_hits, warm_attempts);

    const auto ref = spice::solve_op(f.ckt, o);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(one[0]->node_v, ref->node_v);
    EXPECT_EQ(one[0]->branch_i, ref->branch_i);

    before = spice::kernel_stats_snapshot();
    const auto two = spice::solve_op_batch({&f.ckt, &f.ckt}, {o, o}, f.ws);
    const spice::KernelStats d2 = counts_since(before);
    EXPECT_EQ(d2.newton_iterations, 2 * d1.newton_iterations);
    EXPECT_EQ(d2.numeric_factorizations, 2 * d1.numeric_factorizations);
    EXPECT_EQ(d2.batch_refactorizations, d1.batch_refactorizations);
    for (std::size_t l = 0; l < 2; ++l) {
      ASSERT_TRUE(two[l].ok()) << "lane " << l;
      EXPECT_EQ(two[l]->node_v, ref->node_v) << "lane " << l;
      EXPECT_EQ(two[l]->branch_i, ref->branch_i) << "lane " << l;
    }
  }
}

TEST(OneLaneBatch, SweepsAreTheScalarSweepsBitwise) {
  // ac_sweep() and noise_sweep() are one-lane calls of the batch sweeps:
  // one kernel pass of one lane per frequency point, no Newton work. Both
  // lanes of a two-lane sweep carry the one-lane bits.
  TiaFixture f;
  spice::DcOptions dc;
  dc.workspace = &f.ws;
  const auto op = spice::solve_op(f.ckt, dc);
  ASSERT_TRUE(op.ok());

  spice::AcOptions ac;
  ac.workspace = &f.ws;
  spice::KernelStats before = spice::kernel_stats_snapshot();
  const auto ac_one =
      spice::ac_sweep_batch({&f.ckt}, {&*op}, f.out, spice::kGround, ac, f.ws);
  spice::KernelStats d = counts_since(before);
  ASSERT_EQ(ac_one.size(), 1u);
  ASSERT_TRUE(ac_one[0].ok());
  const long ac_points = static_cast<long>(ac_one[0]->size());
  EXPECT_EQ(d.batch_refactorizations, ac_points);
  EXPECT_EQ(d.numeric_factorizations, ac_points);
  EXPECT_EQ(d.newton_iterations, 0);

  const auto ac_ref = spice::ac_sweep(f.ckt, *op, f.out, spice::kGround, ac);
  before = spice::kernel_stats_snapshot();
  const auto ac_two = spice::ac_sweep_batch(
      {&f.ckt, &f.ckt}, {&*op, &*op}, f.out, spice::kGround, ac, f.ws);
  d = counts_since(before);
  EXPECT_EQ(d.batch_refactorizations, ac_points);
  EXPECT_EQ(d.numeric_factorizations, 2 * ac_points);
  ASSERT_TRUE(ac_ref.ok());
  ASSERT_EQ(ac_one[0]->size(), ac_ref->size());
  for (const auto* sweep : {&*ac_one[0], &*ac_two[0], &*ac_two[1]}) {
    ASSERT_EQ(sweep->size(), ac_ref->size());
    for (std::size_t i = 0; i < ac_ref->size(); ++i) {
      EXPECT_EQ((*sweep)[i].freq, (*ac_ref)[i].freq);
      EXPECT_EQ((*sweep)[i].value, (*ac_ref)[i].value) << "point " << i;
    }
  }

  spice::NoiseOptions noise;
  noise.workspace = &f.ws;
  before = spice::kernel_stats_snapshot();
  const auto n_one = spice::noise_sweep_batch({&f.ckt}, {&*op}, f.out,
                                              spice::kGround, noise, f.ws);
  d = counts_since(before);
  ASSERT_EQ(n_one.size(), 1u);
  ASSERT_TRUE(n_one[0].ok());
  const long noise_points = static_cast<long>(n_one[0]->freq.size());
  EXPECT_EQ(d.batch_refactorizations, noise_points);
  EXPECT_EQ(d.numeric_factorizations, noise_points);
  EXPECT_EQ(d.newton_iterations, 0);

  const auto n_ref =
      spice::noise_sweep(f.ckt, *op, f.out, spice::kGround, noise);
  const auto n_two = spice::noise_sweep_batch(
      {&f.ckt, &f.ckt}, {&*op, &*op}, f.out, spice::kGround, noise, f.ws);
  ASSERT_TRUE(n_ref.ok());
  for (const auto* r : {&*n_one[0], &*n_two[0], &*n_two[1]}) {
    EXPECT_EQ(r->freq, n_ref->freq);
    EXPECT_EQ(r->out_psd, n_ref->out_psd);
    EXPECT_EQ(r->total_output_v2, n_ref->total_output_v2);
  }
}

TEST(OneLaneBatch, WorkspaceMismatchIsTheScalarError) {
  TiaFixture f;
  spice::DcOptions dc;
  const auto op = spice::solve_op(f.ckt, dc);
  ASSERT_TRUE(op.ok());
  // A workspace of another topology, and one without a complex side.
  const spice::Circuit other = circuits::build_two_stage(
      circuits::TwoStageParams{}, spice::TechCard::ptm45());
  spice::SimWorkspace foreign(other);
  spice::SimWorkspace real_only(f.ckt, spice::SimWorkspace::Sides::Real);

  dc.workspace = &foreign;
  const auto dc_one = spice::solve_op_batch({&f.ckt}, {dc}, foreign);
  const auto dc_ref = spice::solve_op(f.ckt, dc);
  ASSERT_FALSE(dc_one[0].ok());
  ASSERT_FALSE(dc_ref.ok());
  expect_same_error(dc_one[0].error(), dc_ref.error(), "dc");

  for (spice::SimWorkspace* ws : {&foreign, &real_only}) {
    spice::AcOptions ac;
    ac.workspace = ws;
    const auto ac_one =
        spice::ac_sweep_batch({&f.ckt}, {&*op}, f.out, spice::kGround, ac, *ws);
    const auto ac_ref = spice::ac_sweep(f.ckt, *op, f.out, spice::kGround, ac);
    ASSERT_FALSE(ac_one[0].ok());
    ASSERT_FALSE(ac_ref.ok());
    expect_same_error(ac_one[0].error(), ac_ref.error(), "ac");

    spice::NoiseOptions noise;
    noise.workspace = ws;
    const auto n_one = spice::noise_sweep_batch({&f.ckt}, {&*op}, f.out,
                                                spice::kGround, noise, *ws);
    const auto n_ref =
        spice::noise_sweep(f.ckt, *op, f.out, spice::kGround, noise);
    ASSERT_FALSE(n_one[0].ok());
    ASSERT_FALSE(n_ref.ok());
    expect_same_error(n_one[0].error(), n_ref.error(), "noise");

    // Two lanes take the batch path: the same error per lane, no kernel
    // pass over a workspace that cannot hold them.
    const auto ac_two = spice::ac_sweep_batch(
        {&f.ckt, &f.ckt}, {&*op, &*op}, f.out, spice::kGround, ac, *ws);
    const auto n_two = spice::noise_sweep_batch(
        {&f.ckt, &f.ckt}, {&*op, &*op}, f.out, spice::kGround, noise, *ws);
    for (std::size_t l = 0; l < 2; ++l) {
      ASSERT_FALSE(ac_two[l].ok());
      expect_same_error(ac_two[l].error(), ac_ref.error(), "ac K=2");
      ASSERT_FALSE(n_two[l].ok());
      expect_same_error(n_two[l].error(), n_ref.error(), "noise K=2");
    }
  }
}

// ---- circuit-level: K lanes vs one-lane calls -------------------------------
// A one-lane pass runs the kernel's compile-time one-lane copy, and every
// lane count is bitwise the scalar reference (above), so comparing every
// lane of a ragged batch with its own one-lane call pins batch == scalar.

namespace {

const std::vector<int> kRaggedK = {1, 2, 5, 16};

template <typename Result>
void expect_same_outcome(const util::Expected<Result>& batch,
                         const util::Expected<Result>& scalar,
                         const std::string& what) {
  ASSERT_EQ(batch.ok(), scalar.ok()) << what;
  if (!batch.ok()) {
    EXPECT_EQ(batch.error().message, scalar.error().message) << what;
  }
}

std::vector<circuits::TwoStageParams> two_stage_designs(int K) {
  std::vector<circuits::TwoStageParams> params;
  for (int l = 0; l < K; ++l) {
    circuits::TwoStageParams p;  // perturb around the defaults
    p.w12 = (10.0 + static_cast<double>(l % 5)) * 1e-6;
    p.w6 = (30.0 + 2.0 * static_cast<double>(l % 7)) * 1e-6;
    p.cc = (0.6 + 0.05 * static_cast<double>(l % 4)) * 1e-12;
    params.push_back(p);
  }
  return params;
}

void expect_two_stage_lane(const util::Expected<circuits::OpampResult>& b,
                           const util::Expected<circuits::OpampResult>& s,
                           const std::string& what) {
  expect_same_outcome(b, s, what);
  if (!s.ok()) return;
  EXPECT_EQ(b->gain, s->gain) << what;
  EXPECT_EQ(b->ugbw, s->ugbw) << what;
  EXPECT_EQ(b->phase_margin, s->phase_margin) << what;
  EXPECT_EQ(b->bias_current, s->bias_current) << what;
  EXPECT_EQ(b->ugbw_found, s->ugbw_found) << what;
}

}  // namespace

TEST(BatchSimParity, TwoStageMatchesScalarBitwiseAcrossRaggedK) {
  const spice::TechCard card = spice::TechCard::ptm45();
  for (const int K : kRaggedK) {
    const auto params = two_stage_designs(K);
    const auto batch = circuits::simulate_two_stage_batch(params, card);
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(K));
    for (int l = 0; l < K; ++l) {
      expect_two_stage_lane(
          batch[static_cast<std::size_t>(l)],
          circuits::simulate_two_stage(params[static_cast<std::size_t>(l)],
                                       card),
          "two_stage K=" + std::to_string(K) + " lane " + std::to_string(l));
    }
  }
}

TEST(BatchSimParity, TwoStageWarmHintsMatchScalarBitwise) {
  // Lanes warm-started from their hints must match one-lane calls holding
  // copies of the same hints, and refresh them to the same operating point.
  const spice::TechCard card = spice::TechCard::ptm45();
  const int K = 5;
  auto params = two_stage_designs(K);
  std::vector<eval::OpHint> batch_hints(K), scalar_hints(K);
  std::vector<eval::OpHint*> hint_ptrs;
  for (auto& h : batch_hints) hint_ptrs.push_back(&h);
  (void)circuits::simulate_two_stage_batch(params, card, {}, hint_ptrs);
  scalar_hints = batch_hints;
  for (auto& p : params) p.w6 += 0.75e-6;  // one grid step away
  const auto batch =
      circuits::simulate_two_stage_batch(params, card, {}, hint_ptrs);
  for (int l = 0; l < K; ++l) {
    const std::size_t i = static_cast<std::size_t>(l);
    circuits::OpampBuildOptions opt;
    opt.hint = &scalar_hints[i];
    expect_two_stage_lane(batch[i],
                          circuits::simulate_two_stage(params[i], card, opt),
                          "warm two_stage lane " + std::to_string(l));
    EXPECT_EQ(batch_hints[i].valid, scalar_hints[i].valid);
    EXPECT_EQ(batch_hints[i].node_v, scalar_hints[i].node_v);
    EXPECT_EQ(batch_hints[i].branch_i, scalar_hints[i].branch_i);
  }
}

TEST(BatchSimParity, NgmOtaMatchesScalarBitwiseAcrossRaggedK) {
  const spice::TechCard card = spice::TechCard::finfet16();
  for (const int K : kRaggedK) {
    std::vector<circuits::NgmParams> params;
    for (int l = 0; l < K; ++l) {
      circuits::NgmParams p;
      p.nf_in = 20 + 4 * (l % 3);
      p.nf_cross = 6 + 2 * (l % 2);
      p.cc = (0.4 + 0.1 * static_cast<double>(l % 4)) * 1e-12;
      params.push_back(p);
    }
    const auto batch = circuits::simulate_ngm_ota_batch(
        params,
        std::vector<spice::TechCard>(static_cast<std::size_t>(K), card));
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(K));
    for (int l = 0; l < K; ++l) {
      const std::size_t i = static_cast<std::size_t>(l);
      const auto scalar = circuits::simulate_ngm_ota(params[i], card);
      const std::string what =
          "ngm K=" + std::to_string(K) + " lane " + std::to_string(l);
      expect_same_outcome(batch[i], scalar, what);
      if (!scalar.ok()) continue;
      EXPECT_EQ(batch[i]->gain, scalar->gain) << what;
      EXPECT_EQ(batch[i]->ugbw, scalar->ugbw) << what;
      EXPECT_EQ(batch[i]->phase_margin, scalar->phase_margin) << what;
      EXPECT_EQ(batch[i]->bias_current, scalar->bias_current) << what;
    }
  }
}

TEST(BatchSimParity, NgmOtaMixedCornerCardsMatchOneLaneCallsBitwise) {
  // The PEX flow's lanes: each lane carries its own PVT corner card (and
  // the layout parasitics) in one call; every lane, and the hint it leaves
  // behind, must equal its own one-lane call.
  const pex::ParasiticModel parasitics = test_support::pex_parasitics();
  circuits::NgmBuildOptions build;
  build.parasitics = &parasitics;
  std::vector<spice::TechCard> corner_cards;
  for (const pex::PvtCorner& corner : pex::standard_corners()) {
    corner_cards.push_back(
        pex::apply_corner(spice::TechCard::finfet16(), corner));
  }
  for (const int K : kRaggedK) {
    const std::size_t n = static_cast<std::size_t>(K);
    std::vector<circuits::NgmParams> params(n);
    std::vector<spice::TechCard> cards;
    for (std::size_t l = 0; l < n; ++l) {
      params[l].nf_in = 20 + 4 * static_cast<int>((l / 3) % 3);
      params[l].cc = (0.4 + 0.1 * static_cast<double>(l % 4)) * 1e-12;
      cards.push_back(corner_cards[l % corner_cards.size()]);
    }
    std::vector<eval::OpHint> batch_hints(n);
    std::vector<eval::OpHint> scalar_hints(n);
    std::vector<eval::OpHint*> hint_ptrs;
    for (auto& h : batch_hints) hint_ptrs.push_back(&h);
    const auto batch =
        circuits::simulate_ngm_ota_batch(params, cards, build, hint_ptrs);
    ASSERT_EQ(batch.size(), n);
    for (std::size_t l = 0; l < n; ++l) {
      circuits::NgmBuildOptions one = build;
      one.hint = &scalar_hints[l];
      const auto scalar = circuits::simulate_ngm_ota(params[l], cards[l], one);
      const std::string what =
          "mixed-card ngm K=" + std::to_string(K) + " lane " +
          std::to_string(l);
      expect_same_outcome(batch[l], scalar, what);
      EXPECT_EQ(batch_hints[l].valid, scalar_hints[l].valid) << what;
      EXPECT_EQ(batch_hints[l].node_v, scalar_hints[l].node_v) << what;
      EXPECT_EQ(batch_hints[l].branch_i, scalar_hints[l].branch_i) << what;
      if (!scalar.ok()) continue;
      EXPECT_EQ(batch[l]->gain, scalar->gain) << what;
      EXPECT_EQ(batch[l]->ugbw, scalar->ugbw) << what;
      EXPECT_EQ(batch[l]->phase_margin, scalar->phase_margin) << what;
      EXPECT_EQ(batch[l]->bias_current, scalar->bias_current) << what;
    }
  }
}

TEST(BatchSimParity, TiaMatchesScalarBitwiseAcrossRaggedK) {
  const spice::TechCard card = spice::TechCard::ptm45();
  for (const int K : kRaggedK) {
    std::vector<circuits::TiaParams> params;
    for (int l = 0; l < K; ++l) {
      circuits::TiaParams p;
      p.wn = (4.0 + 2.0 * static_cast<double>(l % 3)) * 1e-6;
      p.n_series = 4 + 2 * (l % 4);
      p.n_parallel = 1 + (l % 3);
      params.push_back(p);
    }
    const auto batch = circuits::simulate_tia_batch(params, card);
    ASSERT_EQ(batch.size(), static_cast<std::size_t>(K));
    for (int l = 0; l < K; ++l) {
      const std::size_t i = static_cast<std::size_t>(l);
      const auto scalar = circuits::simulate_tia(params[i], card);
      const std::string what =
          "tia K=" + std::to_string(K) + " lane " + std::to_string(l);
      expect_same_outcome(batch[i], scalar, what);
      if (!scalar.ok()) continue;
      EXPECT_EQ(batch[i]->settling_time, scalar->settling_time) << what;
      EXPECT_EQ(batch[i]->cutoff_freq, scalar->cutoff_freq) << what;
      EXPECT_EQ(batch[i]->input_noise, scalar->input_noise) << what;
      EXPECT_EQ(batch[i]->supply_current, scalar->supply_current) << what;
    }
  }
}

// ---- problem-level: evaluate_batch vs evaluate on the same stack ------------

namespace {

/// Raw stacks (no cache) so every call reaches the leaf.
circuits::ProblemOptions lean_options() {
  circuits::ProblemOptions o;
  o.cache = false;
  return o;
}

std::vector<eval::ParamVector> center_batch(
    const circuits::SizingProblem& prob, int K) {
  std::vector<eval::ParamVector> points;
  for (int l = 0; l < K; ++l) {
    eval::ParamVector idx;
    for (std::size_t p = 0; p < prob.params.size(); ++p) {
      const int g = prob.params[p].grid_size();
      int v = g / 2 + (l % 3) - 1 + static_cast<int>(p) * (l % 2);
      if (v < 0) v = 0;
      if (v >= g) v = g - 1;
      idx.push_back(v);
    }
    points.push_back(std::move(idx));
  }
  return points;
}

/// evaluate_batch(points)[i] == evaluate(points[i]) for every ragged K.
void expect_problem_batch_parity(const circuits::SizingProblem& prob,
                                 const std::string& what) {
  for (const int K : kRaggedK) {
    const auto points = center_batch(prob, K);
    const auto via_batch = prob.backend->evaluate_batch(points);
    ASSERT_EQ(via_batch.size(), points.size()) << what;
    for (int l = 0; l < K; ++l) {
      const std::string lane =
          what + " K=" + std::to_string(K) + " lane " + std::to_string(l);
      const std::size_t i = static_cast<std::size_t>(l);
      const auto& b = via_batch[i];
      const auto s = prob.backend->evaluate(points[i]);
      ASSERT_EQ(b.ok(), s.ok()) << lane;
      if (!b.ok()) {
        EXPECT_EQ(b.error().message, s.error().message) << lane;
        continue;
      }
      ASSERT_EQ(b->size(), s->size()) << lane;
      for (std::size_t spec = 0; spec < s->size(); ++spec) {
        EXPECT_EQ((*b)[spec], (*s)[spec]) << lane << " spec " << spec;
      }
    }
  }
}

}  // namespace

TEST(BatchProblemParity, BuiltinProblems) {
  expect_problem_batch_parity(circuits::make_tia_problem(lean_options()),
                              "tia");
  expect_problem_batch_parity(
      circuits::make_two_stage_problem(lean_options()), "two_stage");
  expect_problem_batch_parity(circuits::make_ngm_problem(lean_options()),
                              "ngm_ota");
  // The PEX problem's leaf runs every corner of every point as a lane and
  // folds; the contract holds there too.
  expect_problem_batch_parity(circuits::make_ngm_pex_problem(lean_options()),
                              "ngm_ota_pex");
}

TEST(BatchProblemParity, ShippedDecks) {
  const std::string dir = std::string(AUTOCKT_SOURCE_DIR) + "/examples/decks";
  for (const char* deck :
       {"rc_buffer.cir", "common_source.cir", "five_t_ota.cir"}) {
    auto prob = circuits::make_netlist_problem_from_file(dir + "/" + deck,
                                                         lean_options());
    ASSERT_TRUE(prob.ok()) << deck << ": " << prob.error().message;
    expect_problem_batch_parity(*prob, deck);
  }
}

// ---- env-level: VectorSizingEnv lockstep equivalence ------------------------

TEST(BatchEnvParity, VectorEnvTicksMatchSerialEnvsBitwise) {
  // Same targets, same scripted actions over ONE stack: the vector env's
  // evaluate_batch ticks (K lanes) must emit bitwise the trajectories of
  // serial envs whose every step is a one-point evaluate.
  auto prob = std::make_shared<const circuits::SizingProblem>(
      circuits::make_two_stage_problem(lean_options()));
  circuits::SpecVector unreachable;
  for (const auto& spec : prob->specs) {
    unreachable.push_back(
        spec.sense == circuits::SpecSense::GreaterEq ? 1e18 : -1e18);
  }
  env::EnvConfig config;
  config.horizon = 4;
  const int lanes = 4;
  env::VectorSizingEnv venv(prob, config, lanes);
  std::vector<env::SizingEnv> serial;
  for (int i = 0; i < lanes; ++i) {
    venv.set_target(i, unreachable);
    serial.emplace_back(prob, config);
    serial.back().set_target(unreachable);
  }

  const auto obs0 = venv.reset_all();
  for (int i = 0; i < lanes; ++i) {
    EXPECT_EQ(obs0[static_cast<std::size_t>(i)],
              serial[static_cast<std::size_t>(i)].reset())
        << "reset lane " << i;
  }

  Rng action_rng(31);
  for (int tick = 0; tick < config.horizon; ++tick) {
    std::vector<std::vector<int>> actions(static_cast<std::size_t>(lanes));
    for (auto& a : actions) {
      a.assign(static_cast<std::size_t>(venv.num_params()), 0);
      for (int& v : a) v = static_cast<int>(action_rng.bounded(3));
    }
    const auto rb = venv.step_all(actions, [](int) { return false; });
    for (int i = 0; i < lanes; ++i) {
      const std::size_t li = static_cast<std::size_t>(i);
      const auto& lb = rb[li];
      ASSERT_TRUE(lb.stepped);
      const auto ls = serial[li].step(actions[li]);
      EXPECT_EQ(lb.obs, ls.obs) << "tick " << tick << " lane " << i;
      EXPECT_EQ(lb.reward, ls.reward);
      EXPECT_EQ(lb.done, ls.done);
      EXPECT_EQ(lb.goal_met, ls.goal_met);
    }
  }
}
