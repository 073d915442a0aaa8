#include <gtest/gtest.h>

#include <complex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/sparse.hpp"
#include "linalg/sparse_lu.hpp"
#include "util/rng.hpp"

using namespace autockt::linalg;
using autockt::util::Rng;

TEST(Matrix, InitializerListAndIndexing) {
  RealMatrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, TransposedSwapsIndices) {
  RealMatrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Matrix, MulMatchesHandComputation) {
  RealMatrix m{{1.0, 2.0}, {3.0, 4.0}};
  const auto y = m.mul({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Lu, SolvesKnownSystem) {
  RealMatrix a{{2.0, 1.0}, {1.0, 3.0}};
  const auto x = solve(a, {3.0, 5.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  RealMatrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuFactorization<double> lu(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_TRUE(solve(a, {1.0, 1.0}).empty());
}

TEST(Lu, RejectsNonSquare) {
  RealMatrix a(2, 3);
  LuFactorization<double> lu(a);
  EXPECT_FALSE(lu.ok());
}

TEST(Lu, DeterminantWithPivoting) {
  // Requires a row swap; det = -2.
  RealMatrix a{{0.0, 1.0}, {2.0, 0.0}};
  LuFactorization<double> lu(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_NEAR(lu.determinant(), -2.0, 1e-12);
}

TEST(Lu, ComplexSolve) {
  using C = std::complex<double>;
  ComplexMatrix a{{C(1, 1), C(0, 0)}, {C(0, 0), C(0, 2)}};
  const auto x = solve(a, std::vector<C>{C(2, 0), C(4, 0)});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(std::abs(x[0] - C(1, -1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(x[1] - C(0, -2)), 0.0, 1e-12);
}

// Property sweep: random diagonally dominant systems of several sizes must
// solve to tight residuals, for both plain and transposed solves.
class LuProperty : public ::testing::TestWithParam<int> {};

TEST_P(LuProperty, RandomSystemsSolveWithTightResidual) {
  const int n = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(n));
  for (int rep = 0; rep < 20; ++rep) {
    RealMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    std::vector<double> b(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
      a(r, r) += n;  // dominance => well-conditioned
      b[static_cast<std::size_t>(r)] = rng.uniform(-2.0, 2.0);
    }
    LuFactorization<double> lu(a);
    ASSERT_TRUE(lu.ok());
    EXPECT_LT(residual_norm(a, lu.solve(b), b), 1e-9);
  }
}

TEST_P(LuProperty, TransposedSolveMatchesExplicitTranspose) {
  const int n = GetParam();
  Rng rng(2000 + static_cast<std::uint64_t>(n));
  for (int rep = 0; rep < 10; ++rep) {
    RealMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    std::vector<double> b(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
      a(r, r) += n;
      b[static_cast<std::size_t>(r)] = rng.uniform(-2.0, 2.0);
    }
    LuFactorization<double> lu(a);
    ASSERT_TRUE(lu.ok());
    const auto xt = lu.solve_transposed(b);
    EXPECT_LT(residual_norm(a.transposed(), xt, b), 1e-9);
  }
}

TEST_P(LuProperty, ComplexRandomSystems) {
  using C = std::complex<double>;
  const int n = GetParam();
  Rng rng(3000 + static_cast<std::uint64_t>(n));
  for (int rep = 0; rep < 10; ++rep) {
    ComplexMatrix a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
    std::vector<C> b(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) {
        a(r, c) = C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
      }
      a(r, r) += C(2.0 * n, 0.0);
      b[static_cast<std::size_t>(r)] =
          C(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    LuFactorization<C> lu(a);
    ASSERT_TRUE(lu.ok());
    EXPECT_LT(residual_norm(a, lu.solve(b), b), 1e-9);
    EXPECT_LT(residual_norm(a.transposed(), lu.solve_transposed(b), b), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---- scale-aware singularity (dense LU) -------------------------------------

TEST(Lu, UniformlyTinyMatrixIsNotSingular) {
  // Every entry ~1e-250: an absolute pivot epsilon would misclassify this
  // perfectly well-conditioned system; the scale-aware check must not.
  RealMatrix a{{2e-250, 1e-250}, {1e-250, 3e-250}};
  LuFactorization<double> lu(a);
  ASSERT_TRUE(lu.ok());
  const auto x = lu.solve({3e-250, 5e-250});
  EXPECT_NEAR(x[0], 0.8, 1e-9);
  EXPECT_NEAR(x[1], 1.4, 1e-9);
}

TEST(Lu, ScaledSingularMatrixIsDetected) {
  // A rank-1 matrix scaled by 1e-160: elimination cancels column 1 down to
  // roundoff (~1e-176), far above any absolute epsilon but far below the
  // column's scale — only a relative check catches it.
  const double s = 1e-160;
  RealMatrix a{{1.0 * s, 2.0 * s}, {2.0 * s, 4.0 * s}};
  LuFactorization<double> lu(a);
  EXPECT_FALSE(lu.ok());
}

TEST(Lu, ZeroColumnIsSingular) {
  RealMatrix a{{1.0, 0.0}, {2.0, 0.0}};
  LuFactorization<double> lu(a);
  EXPECT_FALSE(lu.ok());
}

// ---- sparse pattern ---------------------------------------------------------

namespace {

SparsePattern hand_built_pattern() {
  PatternBuilder b(3);
  b.add(0, 0);
  b.add(2, 1);
  b.add(0, 0);  // duplicate merges
  b.add(1, 2);
  b.add(2, 2, /*weak=*/true);
  return SparsePattern(std::move(b));
}

}  // namespace

TEST(SparsePattern, TripletAssemblyAndSlotLookup) {
  const SparsePattern p = hand_built_pattern();
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p.nnz(), 4u);
  EXPECT_GE(p.slot(0, 0), 0);
  EXPECT_GE(p.slot(2, 1), 0);
  EXPECT_GE(p.slot(1, 2), 0);
  EXPECT_GE(p.slot(2, 2), 0);
  EXPECT_EQ(p.slot(1, 1), -1);  // structurally zero
  // Weak flags survive assembly; strong+weak duplicates merge to strong.
  EXPECT_TRUE(p.weak()[static_cast<std::size_t>(p.slot(2, 2))]);
  EXPECT_FALSE(p.weak()[static_cast<std::size_t>(p.slot(0, 0))]);
}

TEST(SparsePattern, WeakMergesToStrongWhenAnyDeclarationIsStrong) {
  PatternBuilder b(2);
  b.add(0, 0, /*weak=*/true);
  b.add(0, 0, /*weak=*/false);
  b.add(1, 1, true);
  b.add(1, 1, true);
  SparsePattern p(std::move(b));
  EXPECT_FALSE(p.weak()[static_cast<std::size_t>(p.slot(0, 0))]);
  EXPECT_TRUE(p.weak()[static_cast<std::size_t>(p.slot(1, 1))]);
}

// ---- sparse LU: symbolic/numeric split --------------------------------------

namespace {

/// Random sparse system: ~density nonzeros per row plus a dominant diagonal.
/// Returns the pattern and a value-filler usable repeatedly (refactor tests).
struct SparseSystem {
  SparsePattern pattern;
  std::vector<std::pair<int, int>> coords;  // by slot
};

SparseSystem make_sparse_system(int n, double density, Rng& rng) {
  PatternBuilder b(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    b.add(static_cast<std::size_t>(r), static_cast<std::size_t>(r));
    for (int c = 0; c < n; ++c) {
      if (c != r && rng.uniform(0.0, 1.0) < density) {
        b.add(static_cast<std::size_t>(r), static_cast<std::size_t>(c));
      }
    }
  }
  SparseSystem sys{SparsePattern(std::move(b)), {}};
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
    if (r == c) v += static_cast<double>(n);  // dominance
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      vals[s] = {v, rng.uniform(-1.0, 1.0)};
    } else {
      vals[s] = v;
    }
  }
  return vals;
}

template <typename T>
Matrix<T> to_dense(const SparseSystem& sys, const std::vector<T>& vals,
                   int n) {
  Matrix<T> a(static_cast<std::size_t>(n), static_cast<std::size_t>(n));
  for (std::size_t s = 0; s < vals.size(); ++s) {
    const auto [r, c] = sys.coords[s];
    a(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) += vals[s];
  }
  return a;
}

/// Every entry of the n x n slot table equals the binary-search slot()
/// lookup, -1 (structurally zero) included.
void expect_table_matches_lookup(const SparsePattern& p) {
  const std::size_t n = p.size();
  const std::vector<int> table = p.slot_table();
  ASSERT_EQ(table.size(), n * n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      EXPECT_EQ(table[r * n + c], p.slot(r, c))
          << "(" << r << ", " << c << ")";
    }
  }
}

}  // namespace

TEST(SparsePattern, SlotTableMatchesSlotLookup) {
  expect_table_matches_lookup(hand_built_pattern());
  for (int n : {1, 2, 7, 40}) {
    Rng rng(7000 + static_cast<std::uint64_t>(n));
    const SparseSystem sys = make_sparse_system(n, 0.25, rng);
    SCOPED_TRACE(n);
    expect_table_matches_lookup(sys.pattern);
  }
}

// The sparse LU tests run the production kernel, SparseLuNumericBatch, at
// one lane (its compile-time copy) and at a ragged lane count; every lane
// must factor and solve its own values.

namespace {

const std::vector<std::size_t> kLaneCounts = {1, 3};

/// Per-lane outcome of one kernel pass.
template <typename T>
struct LanePass {
  std::vector<unsigned char> ok;
  std::vector<std::vector<T>> x;   // A x = b
  std::vector<std::vector<T>> xt;  // A^T x = b
};

/// Interleave each lane's values and right-hand side into the kernel's
/// [index*K + lane] layout, refactor `lu` (sized for vals.size() lanes),
/// and solve both ways.
template <typename T>
LanePass<T> run_pass(SparseLuNumericBatch<T>& lu,
                     const std::vector<std::vector<T>>& vals,
                     const std::vector<std::vector<T>>& rhs) {
  const std::size_t K = vals.size();
  const std::size_t nnz = vals[0].size();
  const std::size_t n = rhs[0].size();
  std::vector<T> soa(nnz * K), soa_b(n * K), x(n * K), xt(n * K);
  for (std::size_t l = 0; l < K; ++l) {
    for (std::size_t s = 0; s < nnz; ++s) soa[s * K + l] = vals[l][s];
    for (std::size_t i = 0; i < n; ++i) soa_b[i * K + l] = rhs[l][i];
  }
  LanePass<T> out;
  out.ok.assign(K, 2);
  lu.refactor(soa.data(), out.ok.data());
  lu.solve(soa_b.data(), x.data());
  lu.solve_transposed(soa_b.data(), xt.data());
  out.x.assign(K, std::vector<T>(n));
  out.xt.assign(K, std::vector<T>(n));
  for (std::size_t l = 0; l < K; ++l) {
    for (std::size_t i = 0; i < n; ++i) {
      out.x[l][i] = x[i * K + l];
      out.xt[l][i] = xt[i * K + l];
    }
  }
  return out;
}

template <typename T>
T random_entry(Rng& rng) {
  if constexpr (std::is_same_v<T, std::complex<double>>) {
    return {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  } else {
    return rng.uniform(-2.0, 2.0);
  }
}

/// `reps` random systems of `n` unknowns, solved at every lane count: the
/// same symbolic analysis and kernel serve every pass (the refactor path),
/// a K-lane pass takes K consecutive systems (wrapping around), and every
/// lane solves its system to a tight residual both ways, bitwise as the
/// one-lane pass did.
template <typename T>
void expect_lanes_solve_random_systems(int n, double density,
                                       std::uint64_t seed, int reps) {
  Rng rng(seed);
  SparseSystem sys = make_sparse_system(n, density, rng);
  SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
  ASSERT_TRUE(symbolic.ok());
  const auto count = static_cast<std::size_t>(reps);
  std::vector<std::vector<T>> vals, rhs;
  for (std::size_t r = 0; r < count; ++r) {
    vals.push_back(random_values<T>(sys, n, rng));
    rhs.emplace_back(static_cast<std::size_t>(n));
    for (auto& v : rhs.back()) v = random_entry<T>(rng);
  }
  std::vector<std::vector<T>> x1(count), xt1(count);  // one-lane answers
  for (const std::size_t K : kLaneCounts) {
    SCOPED_TRACE("lanes " + std::to_string(K));
    SparseLuNumericBatch<T> lu(symbolic, K);
    for (std::size_t first = 0; first < count; first += K) {
      std::vector<std::vector<T>> pass_vals, pass_rhs;
      for (std::size_t l = 0; l < K; ++l) {
        pass_vals.push_back(vals[(first + l) % count]);
        pass_rhs.push_back(rhs[(first + l) % count]);
      }
      const LanePass<T> pass = run_pass(lu, pass_vals, pass_rhs);
      for (std::size_t l = 0; l < K; ++l) {
        const std::size_t r = (first + l) % count;
        ASSERT_EQ(pass.ok[l], 1) << "system " << r;
        const auto dense = to_dense<T>(sys, vals[r], n);
        // The pivot order is purely structural (no numerical pivoting), so
        // element growth is a little above the partial-pivot dense LU;
        // 1e-7 on these O(n)-normed systems still catches any slot/program
        // bug cold.
        EXPECT_LT(residual_norm(dense, pass.x[l], rhs[r]), 1e-7);
        EXPECT_LT(residual_norm(dense.transposed(), pass.xt[l], rhs[r]), 1e-7);
        if (K == 1) {
          x1[r] = pass.x[l];
          xt1[r] = pass.xt[l];
        } else {
          EXPECT_EQ(pass.x[l], x1[r]) << "system " << r;
          EXPECT_EQ(pass.xt[l], xt1[r]) << "system " << r;
        }
      }
    }
  }
}

}  // namespace

class SparseLuProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseLuProperty, RefactorAndSolveMatchDenseReference) {
  const int n = GetParam();
  expect_lanes_solve_random_systems<double>(
      n, 0.25, 4000 + static_cast<std::uint64_t>(n), 8);
}

TEST_P(SparseLuProperty, ComplexRefactorAndSolve) {
  const int n = GetParam();
  expect_lanes_solve_random_systems<std::complex<double>>(
      n, 0.3, 5000 + static_cast<std::uint64_t>(n), 5);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseLuProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(SparseLu, SingularValuesFailTheScaleAwarePivotCheck) {
  // Structurally fine, numerically rank-1: refactor must refuse that lane
  // (the workspace then falls back to the dense kernel, which also
  // refuses) and leave a regular lane beside it usable.
  PatternBuilder b(2);
  b.add(0, 0);
  b.add(0, 1);
  b.add(1, 0);
  b.add(1, 1);
  SparsePattern p(std::move(b));
  SparseLuSymbolic symbolic(p, p.weak());
  ASSERT_TRUE(symbolic.ok());
  const auto values = [&](double a, double b01, double b10, double d) {
    std::vector<double> vals(4, 0.0);
    vals[static_cast<std::size_t>(p.slot(0, 0))] = a;
    vals[static_cast<std::size_t>(p.slot(0, 1))] = b01;
    vals[static_cast<std::size_t>(p.slot(1, 0))] = b10;
    vals[static_cast<std::size_t>(p.slot(1, 1))] = d;
    return vals;
  };
  const std::vector<double> singular = values(1.0, 2.0, 2.0, 4.0);
  const std::vector<double> regular = values(1.0, 2.0, 3.0, 4.0);
  for (const std::size_t K : kLaneCounts) {
    SCOPED_TRACE("lanes " + std::to_string(K));
    std::vector<std::vector<double>> vals(K, singular);
    if (K > 1) vals[1] = regular;
    SparseLuNumericBatch<double> lu(symbolic, K);
    const LanePass<double> pass =
        run_pass(lu, vals, std::vector<std::vector<double>>(K, {1.0, 1.0}));
    for (std::size_t l = 0; l < K; ++l) {
      EXPECT_EQ(pass.ok[l], l == 1 ? 1 : 0) << "lane " << l;
    }
    if (K > 1) {
      // [[1 2] [3 4]] x = [1 1]: x = (-1, 1).
      EXPECT_NEAR(pass.x[1][0], -1.0, 1e-12);
      EXPECT_NEAR(pass.x[1][1], 1.0, 1e-12);
    }
  }
}

TEST(SparseLu, MnaStyleZeroDiagonalPivotsViaPermutation) {
  // Voltage-source-like 2x2 block: zero diagonal on the branch row, +-1
  // couplings — Markowitz ordering must pivot off-diagonal.
  //   [ g  1 ] [v]   [0]
  //   [ 1  0 ] [i] = [V]
  PatternBuilder b(2);
  b.add(0, 0);
  b.add(0, 1);
  b.add(1, 0);
  SparsePattern p(std::move(b));
  SparseLuSymbolic symbolic(p, p.weak());
  ASSERT_TRUE(symbolic.ok());
  std::vector<double> vals(3, 0.0);
  vals[static_cast<std::size_t>(p.slot(0, 0))] = 1e-3;
  vals[static_cast<std::size_t>(p.slot(0, 1))] = 1.0;
  vals[static_cast<std::size_t>(p.slot(1, 0))] = 1.0;
  for (const std::size_t K : kLaneCounts) {
    SCOPED_TRACE("lanes " + std::to_string(K));
    // Lane l drives V = 5 (l + 1).
    std::vector<std::vector<double>> rhs;
    for (std::size_t l = 0; l < K; ++l) {
      rhs.push_back({0.0, 5.0 * static_cast<double>(l + 1)});
    }
    SparseLuNumericBatch<double> lu(symbolic, K);
    const LanePass<double> pass =
        run_pass(lu, std::vector<std::vector<double>>(K, vals), rhs);
    for (std::size_t l = 0; l < K; ++l) {
      const double v = rhs[l][1];
      ASSERT_EQ(pass.ok[l], 1) << "lane " << l;
      EXPECT_NEAR(pass.x[l][0], v, 1e-12);            // v = V
      EXPECT_NEAR(pass.x[l][1], -1e-3 * v, 1e-15);    // i = -g*V
    }
  }
}
