#include <gtest/gtest.h>

#include <complex>
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

class SparseLuProperty : public ::testing::TestWithParam<int> {};

TEST_P(SparseLuProperty, RefactorAndSolveMatchDenseReference) {
  const int n = GetParam();
  Rng rng(4000 + static_cast<std::uint64_t>(n));
  SparseSystem sys = make_sparse_system(n, 0.25, rng);
  SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
  ASSERT_TRUE(symbolic.ok());
  SparseLuNumeric<double> lu(symbolic);

  // The same symbolic analysis serves many value sets: the refactor path.
  for (int rep = 0; rep < 8; ++rep) {
    const auto vals = random_values<double>(sys, n, rng);
    ASSERT_TRUE(lu.refactor(vals.data()));
    std::vector<double> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = rng.uniform(-2.0, 2.0);
    std::vector<double> x(static_cast<std::size_t>(n));
    lu.solve(b.data(), x.data());
    const auto dense = to_dense<double>(sys, vals, n);
    // The pivot order is purely structural (no numerical pivoting), so
    // element growth is a little above the partial-pivot dense LU; 1e-7 on
    // these O(n)-normed systems still catches any slot/program bug cold.
    EXPECT_LT(residual_norm(dense, x, b), 1e-7);

    lu.solve_transposed(b.data(), x.data());
    EXPECT_LT(residual_norm(dense.transposed(), x, b), 1e-7);
  }
}

TEST_P(SparseLuProperty, ComplexRefactorAndSolve) {
  using C = std::complex<double>;
  const int n = GetParam();
  Rng rng(5000 + static_cast<std::uint64_t>(n));
  SparseSystem sys = make_sparse_system(n, 0.3, rng);
  SparseLuSymbolic symbolic(sys.pattern, sys.pattern.weak());
  ASSERT_TRUE(symbolic.ok());
  SparseLuNumeric<C> lu(symbolic);
  for (int rep = 0; rep < 5; ++rep) {
    const auto vals = random_values<C>(sys, n, rng);
    ASSERT_TRUE(lu.refactor(vals.data()));
    std::vector<C> b(static_cast<std::size_t>(n));
    for (auto& v : b) v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    std::vector<C> x(static_cast<std::size_t>(n));
    lu.solve(b.data(), x.data());
    const auto dense = to_dense<C>(sys, vals, n);
    EXPECT_LT(residual_norm(dense, x, b), 1e-7);
    lu.solve_transposed(b.data(), x.data());
    EXPECT_LT(residual_norm(dense.transposed(), x, b), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SparseLuProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(SparseLu, SingularValuesFailTheScaleAwarePivotCheck) {
  // Structurally fine, numerically rank-1: refactor must refuse (the
  // workspace then falls back to the dense kernel, which also refuses).
  PatternBuilder b(2);
  b.add(0, 0);
  b.add(0, 1);
  b.add(1, 0);
  b.add(1, 1);
  SparsePattern p(std::move(b));
  SparseLuSymbolic symbolic(p, p.weak());
  ASSERT_TRUE(symbolic.ok());
  SparseLuNumeric<double> lu(symbolic);
  std::vector<double> vals(4, 0.0);
  vals[static_cast<std::size_t>(p.slot(0, 0))] = 1.0;
  vals[static_cast<std::size_t>(p.slot(0, 1))] = 2.0;
  vals[static_cast<std::size_t>(p.slot(1, 0))] = 2.0;
  vals[static_cast<std::size_t>(p.slot(1, 1))] = 4.0;
  EXPECT_FALSE(lu.refactor(vals.data()));
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
  SparseLuNumeric<double> lu(symbolic);
  std::vector<double> vals(3, 0.0);
  vals[static_cast<std::size_t>(p.slot(0, 0))] = 1e-3;
  vals[static_cast<std::size_t>(p.slot(0, 1))] = 1.0;
  vals[static_cast<std::size_t>(p.slot(1, 0))] = 1.0;
  ASSERT_TRUE(lu.refactor(vals.data()));
  std::vector<double> rhs = {0.0, 5.0};
  std::vector<double> x(2);
  lu.solve(rhs.data(), x.data());
  EXPECT_NEAR(x[0], 5.0, 1e-12);        // v = V
  EXPECT_NEAR(x[1], -5e-3, 1e-15);      // i = -g*V
}
