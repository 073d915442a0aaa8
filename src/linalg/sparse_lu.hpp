#pragma once
// Sparse LU for MNA systems, split into a structural (symbolic) phase done
// once per circuit topology and a numeric refactorization done every Newton
// iteration / frequency point / env step.
//
//  * SparseLuSymbolic — Markowitz-ordered elimination on the frozen pattern:
//    picks pivots minimizing (row_count-1)*(col_count-1), computes the fill
//    pattern, and compiles the whole elimination into flat slot programs
//    (scatter map, per-pivot L/U slot lists, update target lists). Ordering
//    is purely structural, so it is a deterministic function of the circuit
//    topology — two threads, or two runs, always produce the same factors
//    for the same matrix values regardless of which design point they saw
//    first. Positions the discovery pass marks "weak" (gmin homotopy
//    diagonals, transient companion slots — structurally present but often
//    numerically zero) are avoided as pivots while any strong candidate
//    remains. The structural working set is sparse row/column adjacency
//    lists (O(nnz + fill) memory), never a dense n*n occupancy map, so
//    symbolic analysis of large generated decks cannot allocate
//    quadratically.
//  * SparseLuNumericBatch<T> — the one numeric kernel: replays the compiled
//    program over K value arrays ("lanes") per pass, zero heap allocation,
//    sparse flop count, for real (Newton, transient) and complex (AC, noise)
//    assemblies of the same pattern. Storage is lane-contiguous
//    struct-of-arrays, so the inner update loops vectorize and the K
//    dependent elimination chains interleave into independent instruction
//    streams; one lane is the common case (every transient, every single
//    design) and runs a copy of the loops built for a lane count of 1.
//    refactor() applies a scale-aware pivot check per lane (relative to the
//    largest entry of the pivot's original column, never an absolute
//    epsilon); callers redo a failed lane with dense partial-pivot LU, which
//    keeps results deterministic: the fallback depends only on the values.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <vector>

#include "linalg/sparse.hpp"

namespace autockt::linalg {

namespace detail {
inline double mag_of(double v) { return std::fabs(v); }
inline double mag_of(const std::complex<double>& v) { return std::abs(v); }
}  // namespace detail

class SparseLuSymbolic {
 public:
  SparseLuSymbolic() = default;

  /// Structural analysis of `pattern`; `weak` flags (size nnz, may be empty
  /// meaning all-strong) demote slots as pivot candidates.
  explicit SparseLuSymbolic(const SparsePattern& pattern,
                            const std::vector<char>& weak = {}) {
    build(pattern, weak);
  }

  /// Structurally factorizable (a complete pivot sequence exists).
  bool ok() const { return ok_; }
  std::size_t size() const { return n_; }
  std::size_t lu_nnz() const { return lu_nnz_; }
  /// Multiply-add count of one numeric refactorization (diagnostic).
  std::size_t flops() const { return upd_slot_.size(); }

 private:
  template <typename T>
  friend class SparseLuNumericBatch;
  // The one-lane scalar kernel the tests keep as the batch kernel's bitwise
  // reference replays the same program.
  template <typename T>
  friend class ScalarLuReference;

  /// Index of `col` in the sorted list, or -1.
  static int find_col(const std::vector<int>& cols, int col) {
    const auto it = std::lower_bound(cols.begin(), cols.end(), col);
    if (it == cols.end() || *it != col) return -1;
    return static_cast<int>(it - cols.begin());
  }

  void build(const SparsePattern& pattern, const std::vector<char>& weak) {
    n_ = pattern.size();
    ok_ = true;
    const std::size_t n = n_;
    if (n == 0) return;

    // ---- phase 1: Markowitz pivot order ------------------------------------
    // Sparse structural working set: per-row sorted column lists (with
    // aligned strength flags) plus per-column row lists. Candidate
    // enumeration order does not matter — the tie-break below is a strict
    // total order over (strength, cost, j, i), so the selected pivot is the
    // unique minimum however the active set is scanned.
    std::vector<std::vector<int>> row_cols(n);
    std::vector<std::vector<char>> row_strong(n);
    std::vector<std::vector<int>> col_rows(n);
    for (std::size_t col = 0; col < n; ++col) {
      for (int p = pattern.col_ptr()[col]; p < pattern.col_ptr()[col + 1];
           ++p) {
        const auto row = static_cast<std::size_t>(pattern.row_idx()[p]);
        const char s = weak.empty() ? 1 : static_cast<char>(!weak[p]);
        std::vector<int>& cols = row_cols[row];
        const auto it =
            std::lower_bound(cols.begin(), cols.end(), static_cast<int>(col));
        const auto pos = static_cast<std::size_t>(it - cols.begin());
        if (it != cols.end() && *it == static_cast<int>(col)) {
          row_strong[row][pos] = s;  // duplicate slot: last writer wins
        } else {
          cols.insert(it, static_cast<int>(col));
          row_strong[row].insert(row_strong[row].begin() +
                                     static_cast<std::ptrdiff_t>(pos),
                                 s);
        }
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      for (int c : row_cols[r]) {
        col_rows[static_cast<std::size_t>(c)].push_back(static_cast<int>(r));
      }
    }

    std::vector<char> row_active(n, 1), col_active(n, 1);
    std::vector<int> row_cnt(n, 0), col_cnt(n, 0);
    for (std::size_t r = 0; r < n; ++r)
      row_cnt[r] = static_cast<int>(row_cols[r].size());
    for (std::size_t c = 0; c < n; ++c)
      col_cnt[c] = static_cast<int>(col_rows[c].size());

    // Hoisted merge scratch (fill merges swap through these).
    std::vector<int> piv_cols, merged_cols;
    std::vector<char> piv_strong, merged_strong;

    prow_.assign(n, 0);
    pcol_.assign(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
      long best_cost = -1;
      std::size_t bi = 0, bj = 0;
      bool best_strong = false;
      for (std::size_t j = 0; j < n; ++j) {
        if (!col_active[j]) continue;
        for (const int ri : col_rows[j]) {
          const auto i = static_cast<std::size_t>(ri);
          if (!row_active[i]) continue;
          const int pos = find_col(row_cols[i], static_cast<int>(j));
          const bool s = row_strong[i][static_cast<std::size_t>(pos)] != 0;
          const long cost = static_cast<long>(row_cnt[i] - 1) *
                            static_cast<long>(col_cnt[j] - 1);
          // Strong beats weak; then lower Markowitz cost; then (j, i) order.
          const bool better =
              best_cost < 0 || (s && !best_strong) ||
              (s == best_strong &&
               (cost < best_cost ||
                (cost == best_cost && (j < bj || (j == bj && i < bi)))));
          if (better) {
            best_cost = cost;
            bi = i;
            bj = j;
            best_strong = s;
          }
        }
      }
      if (best_cost < 0) {
        ok_ = false;  // structurally singular
        return;
      }
      prow_[k] = static_cast<int>(bi);
      pcol_[k] = static_cast<int>(bj);
      row_active[bi] = 0;
      col_active[bj] = 0;
      for (const int c : row_cols[bi])
        if (col_active[static_cast<std::size_t>(c)])
          --col_cnt[static_cast<std::size_t>(c)];
      for (const int r : col_rows[bj])
        if (row_active[static_cast<std::size_t>(r)])
          --row_cnt[static_cast<std::size_t>(r)];

      // Structural fill among still-active rows/cols: merge the pivot row's
      // active columns into every active row of the pivot column. Fill
      // inherits strength from its sources (a product of two weak,
      // often-zero entries is itself often zero); an existing weak entry is
      // upgraded when both sources are strong.
      piv_cols.clear();
      piv_strong.clear();
      for (std::size_t t = 0; t < row_cols[bi].size(); ++t) {
        const int c = row_cols[bi][t];
        if (col_active[static_cast<std::size_t>(c)]) {
          piv_cols.push_back(c);
          piv_strong.push_back(row_strong[bi][t]);
        }
      }
      if (piv_cols.empty()) continue;
      for (const int ri : col_rows[bj]) {
        const auto r = static_cast<std::size_t>(ri);
        if (!row_active[r]) continue;
        const int bj_pos = find_col(row_cols[r], static_cast<int>(bj));
        const char s_rbj = row_strong[r][static_cast<std::size_t>(bj_pos)];
        std::vector<int>& rc = row_cols[r];
        std::vector<char>& rs = row_strong[r];
        merged_cols.clear();
        merged_strong.clear();
        std::size_t a = 0, b = 0;
        while (a < rc.size() || b < piv_cols.size()) {
          if (b == piv_cols.size() ||
              (a < rc.size() && rc[a] < piv_cols[b])) {
            merged_cols.push_back(rc[a]);
            merged_strong.push_back(rs[a]);
            ++a;
          } else if (a < rc.size() && rc[a] == piv_cols[b]) {
            merged_cols.push_back(rc[a]);
            merged_strong.push_back(static_cast<char>(
                rs[a] | (s_rbj & piv_strong[b])));
            ++a;
            ++b;
          } else {
            const int c = piv_cols[b];
            merged_cols.push_back(c);
            merged_strong.push_back(static_cast<char>(s_rbj & piv_strong[b]));
            ++row_cnt[r];
            ++col_cnt[static_cast<std::size_t>(c)];
            col_rows[static_cast<std::size_t>(c)].push_back(ri);
            ++b;
          }
        }
        rc.swap(merged_cols);
        rs.swap(merged_strong);
      }
    }

    inv_prow_.assign(n, 0);
    inv_pcol_.assign(n, 0);
    for (std::size_t k = 0; k < n; ++k) {
      inv_prow_[static_cast<std::size_t>(prow_[k])] = static_cast<int>(k);
      inv_pcol_[static_cast<std::size_t>(pcol_[k])] = static_cast<int>(k);
    }

    // ---- phase 2: LU fill pattern in permuted coordinates ------------------
    // Recomputed cleanly with the same sparse-list representation: per
    // permuted row, a sorted column list; per column, the rows strictly
    // below the diagonal that contain it (the fill frontier).
    std::vector<std::vector<int>> lu_rows(n);
    for (std::size_t col = 0; col < n; ++col) {
      for (int p = pattern.col_ptr()[col]; p < pattern.col_ptr()[col + 1];
           ++p) {
        const auto row = static_cast<std::size_t>(pattern.row_idx()[p]);
        lu_rows[static_cast<std::size_t>(inv_prow_[row])].push_back(
            inv_pcol_[col]);
      }
    }
    std::vector<std::vector<int>> below(n);  // rows r > c containing col c
    for (std::size_t r = 0; r < n; ++r) {
      std::vector<int>& cols = lu_rows[r];
      std::sort(cols.begin(), cols.end());
      cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
      for (const int c : cols) {
        if (static_cast<std::size_t>(c) < r)
          below[static_cast<std::size_t>(c)].push_back(static_cast<int>(r));
      }
    }
    std::vector<int> fill_scratch;
    for (std::size_t k = 0; k < n; ++k) {
      const std::vector<int>& uk = lu_rows[k];
      const auto u_begin = std::upper_bound(uk.begin(), uk.end(),
                                            static_cast<int>(k));
      if (u_begin == uk.end()) continue;
      for (std::size_t t = 0; t < below[k].size(); ++t) {
        const auto r = static_cast<std::size_t>(below[k][t]);
        std::vector<int>& rc = lu_rows[r];
        fill_scratch.clear();
        auto a = rc.begin();
        for (auto b = u_begin; b != uk.end(); ++b) {
          a = std::lower_bound(a, rc.end(), *b);
          if (a == rc.end() || *a != *b) fill_scratch.push_back(*b);
        }
        for (const int c : fill_scratch) {
          rc.insert(std::lower_bound(rc.begin(), rc.end(), c), c);
          if (static_cast<std::size_t>(c) < r)
            below[static_cast<std::size_t>(c)].push_back(static_cast<int>(r));
        }
      }
    }

    // Slot assignment (row-major over the permuted LU pattern).
    std::vector<int> row_start(n + 1, 0);
    for (std::size_t r = 0; r < n; ++r) {
      row_start[r + 1] = row_start[r] + static_cast<int>(lu_rows[r].size());
    }
    lu_nnz_ = static_cast<std::size_t>(row_start[n]);
    const auto slot_at = [&](std::size_t r, std::size_t c) -> int {
      const int pos = find_col(lu_rows[r], static_cast<int>(c));
      return pos < 0 ? -1 : row_start[r] + pos;
    };

    // Scatter map: A-pattern slot -> LU slot.
    scatter_.assign(pattern.nnz(), -1);
    scatter_col_.assign(pattern.nnz(), 0);
    for (std::size_t col = 0; col < n; ++col) {
      for (int p = pattern.col_ptr()[col]; p < pattern.col_ptr()[col + 1];
           ++p) {
        const auto row = static_cast<std::size_t>(pattern.row_idx()[p]);
        scatter_[static_cast<std::size_t>(p)] =
            slot_at(static_cast<std::size_t>(inv_prow_[row]),
                    static_cast<std::size_t>(inv_pcol_[col]));
        scatter_col_[static_cast<std::size_t>(p)] = inv_pcol_[col];
      }
    }

    diag_slot_.assign(n, -1);
    for (std::size_t k = 0; k < n; ++k) diag_slot_[k] = slot_at(k, k);

    // Column-major adjacency (rows ascending, matching the row scan order).
    std::vector<std::vector<int>> lu_cols(n);
    for (std::size_t r = 0; r < n; ++r) {
      for (const int c : lu_rows[r])
        lu_cols[static_cast<std::size_t>(c)].push_back(static_cast<int>(r));
    }

    auto build_lists = [&](auto pred, std::vector<int>& ptr,
                           std::vector<int>& idx, std::vector<int>& slot,
                           bool by_row) {
      ptr.assign(n + 1, 0);
      idx.clear();
      slot.clear();
      for (std::size_t a = 0; a < n; ++a) {
        const std::vector<int>& list = by_row ? lu_rows[a] : lu_cols[a];
        for (const int bo : list) {
          const auto b = static_cast<std::size_t>(bo);
          const std::size_t r = by_row ? a : b;
          const std::size_t c = by_row ? b : a;
          if (pred(r, c)) {
            idx.push_back(static_cast<int>(b));
            slot.push_back(slot_at(r, c));
          }
        }
        ptr[a + 1] = static_cast<int>(idx.size());
      }
    };
    auto in_l = [](std::size_t r, std::size_t c) { return c < r; };
    auto in_u_offdiag = [](std::size_t r, std::size_t c) { return c > r; };
    build_lists(in_l, lrow_ptr_, lrow_idx_, lrow_slot_, /*by_row=*/true);
    build_lists(in_u_offdiag, urow_ptr_, urow_idx_, urow_slot_, true);
    build_lists(in_l, lcol_ptr_, lcol_idx_, lcol_slot_, /*by_row=*/false);
    build_lists(in_u_offdiag, ucol_ptr_, ucol_idx_, ucol_slot_, false);

    // Compiled update program: for pivot k, for each L slot (r,k), for each
    // U slot (k,c): target slot (r,c). Flat, in loop order.
    upd_ptr_.assign(n + 1, 0);
    upd_slot_.clear();
    for (std::size_t k = 0; k < n; ++k) {
      for (int lp = lcol_ptr_[k]; lp < lcol_ptr_[k + 1]; ++lp) {
        const auto r = static_cast<std::size_t>(lcol_idx_[lp]);
        for (int up = urow_ptr_[k]; up < urow_ptr_[k + 1]; ++up) {
          const auto c = static_cast<std::size_t>(urow_idx_[up]);
          upd_slot_.push_back(slot_at(r, c));
        }
      }
      upd_ptr_[k + 1] = static_cast<int>(upd_slot_.size());
    }
  }

  std::size_t n_ = 0;
  std::size_t lu_nnz_ = 0;
  bool ok_ = false;
  std::vector<int> prow_, pcol_, inv_prow_, inv_pcol_;
  std::vector<int> scatter_;      // A slot -> LU slot
  std::vector<int> scatter_col_;  // A slot -> permuted column (pivot scale)
  std::vector<int> diag_slot_;
  // Row-major / column-major adjacency of L (unit diag excluded) and U
  // (diagonal excluded); *_idx holds the other coordinate.
  std::vector<int> lrow_ptr_, lrow_idx_, lrow_slot_;
  std::vector<int> urow_ptr_, urow_idx_, urow_slot_;
  std::vector<int> lcol_ptr_, lcol_idx_, lcol_slot_;
  std::vector<int> ucol_ptr_, ucol_idx_, ucol_slot_;
  std::vector<int> upd_ptr_, upd_slot_;
};

/// The numeric kernel: K simulation lanes per elimination-program pass.
///
/// Storage is struct-of-arrays with lane-contiguous slots, held as plain
/// double arrays. A real slot s occupies K doubles at [s*K + lane]; a
/// complex slot occupies 2K doubles — the real parts at [s*2K + lane], the
/// imaginary parts at [s*2K + K + lane] (split-complex). Splitting matters:
/// a lane loop over std::complex<double> compiles to a per-element
/// __muldc3 library call under the C99 Annex G rules, while the split form
/// is straight-line double arithmetic the compiler vectorizes. Every inner
/// loop over lanes is therefore unit-stride packed math, and the K
/// dependent elimination chains run as independent instruction streams
/// instead of one latency-bound chain. At K = 1 the layout is the plain
/// scalar one, and refactor() and the solves run a copy of their loops
/// built for a lane count of 1 (the same source, picked at run time).
///
/// Serial-exact contract: lane l's pivot decisions, factors and solve
/// results are bitwise identical to running the scalar elimination (one
/// value array, std::complex arithmetic) over that lane's values alone, and
/// therefore independent of K and of the other lanes. For complex T the
/// multiply in the update loops is expanded as (ar*br - ai*bi, ar*bi +
/// ai*br) — exactly the value std::complex's operator* produces whenever
/// the product is not the all-NaN case that triggers Annex G recovery
/// (finite stamped matrices never are; lanes that go non-finite have
/// already failed the pivot check and are discarded to the dense fallback).
/// Complex divisions and magnitude checks go through the std::complex
/// library calls, so the Smith's-algorithm division rounding matches
/// bitwise. The zero-L-multiplier skip is classified per L slot across
/// lanes: all lanes zero skips the whole update block (the scalar skip for
/// every lane), no lane zero runs a branch-free lane loop (the scalar
/// update for every lane), and the mixed case falls back to a per-lane
/// guard — each lane always sees exactly the scalar operation sequence.
/// Lanes whose scale-aware pivot check fails are flagged for the caller's
/// per-lane dense fallback; their inverse pivots are forced to zero so the
/// remaining passes stay finite for the surviving lanes.
template <typename T>
class SparseLuNumericBatch {
  /// Components per slot: 1 for real, 2 (split re/im blocks) for complex.
  static constexpr bool kComplex = !std::is_same_v<T, double>;
  static constexpr std::size_t kComp = kComplex ? 2 : 1;

 public:
  /// Scale-aware pivot acceptance: |pivot| must exceed this fraction of the
  /// largest |entry| stamped into its (permuted) column.
  static constexpr double kPivotRelTol = 1e-13;

  SparseLuNumericBatch() = default;

  SparseLuNumericBatch(const SparseLuSymbolic& symbolic, std::size_t lanes) {
    reset(symbolic, lanes);
  }

  /// Re-point at `symbolic` with a (possibly different) lane count, reusing
  /// the existing allocations when they are large enough. Lockstep Newton
  /// shrinks the lane count every time a lane retires, so this runs on the
  /// DC hot path and must not reallocate on shrink (vector::assign keeps
  /// capacity).
  void reset(const SparseLuSymbolic& symbolic, std::size_t lanes) {
    sym_ = &symbolic;
    lanes_ = lanes;
    lu_vals_.assign(symbolic.lu_nnz() * lanes * kComp, 0.0);
    col_scale_.assign(symbolic.size() * lanes, 0.0);
    inv_piv_.assign(lanes * kComp, 0.0);
    y_.assign(symbolic.size() * lanes * kComp, 0.0);
    if constexpr (kComplex) {
      finite_acc_.assign(lanes, 0.0);
      lane_exact_.assign(lanes, 0);
      exact_scale_.assign(symbolic.size() * lanes, 0.0);
    }
  }

  std::size_t lanes() const { return lanes_; }

  /// Refactorize all lanes from `a_vals` (layout [a_slot*K + lane]).
  /// `lane_ok[l]` (size K) is set to 1 when lane l passed every scale-aware
  /// pivot check, in pivot order, and 0 otherwise; failed lanes carry no
  /// usable factors and the caller is expected to dense-fall-back per lane.
  void refactor(const T* a_vals, unsigned char* lane_ok) {
    const auto src = [a_vals](std::size_t i) { return a_vals[i]; };
    lanes_ == 1 ? refactor_impl<1>(src, lane_ok)
                : refactor_impl<0>(src, lane_ok);
  }

  /// Complex-only fused AC refactorization: forms y = g + i*omega*c on the
  /// fly from the separate conductance/capacitance lane arrays (both laid
  /// out [a_slot*K + lane]) instead of requiring the caller to materialize
  /// an interleaved complex array per frequency point. The imaginary part
  /// is computed as omega * c, so the factors are bitwise the same as
  /// refactor() on that materialized array.
  void refactor_gc(const double* g_vals, const double* c_vals, double omega,
                   unsigned char* lane_ok) {
    static_assert(kComplex, "refactor_gc is the complex AC entry point");
    const auto src = [g_vals, c_vals, omega](std::size_t i) {
      return T(g_vals[i], omega * c_vals[i]);
    };
    lanes_ == 1 ? refactor_impl<1>(src, lane_ok)
                : refactor_impl<0>(src, lane_ok);
  }

  /// Solve A x = b for every lane (b, x laid out [i*K + lane]; must not
  /// alias). Failed lanes produce unspecified values — the caller replaces
  /// them with its dense-fallback solution.
  void solve(const T* b, T* x) const {
    lanes_ == 1 ? solve_impl<1>(b, x) : solve_impl<0>(b, x);
  }

  /// Solve A^T x = b for every lane (adjoint noise analysis).
  void solve_transposed(const T* b, T* x) const {
    lanes_ == 1 ? solve_transposed_impl<1>(b, x)
                : solve_transposed_impl<0>(b, x);
  }

 private:
  /// The loops below take the lane count as KC when it is fixed at compile
  /// time (1) and read it from lanes_ when KC is 0. `src(i)` is the A value
  /// at flat index i = a_slot*K + lane.
  template <std::size_t KC, typename Src>
  void refactor_impl(Src src, unsigned char* lane_ok) {
    const SparseLuSymbolic& s = *sym_;
    const std::size_t n = s.n_;
    const std::size_t K = KC != 0 ? KC : lanes_;
    double* const lu = lu_vals_.data();
    std::fill(lu_vals_.begin(), lu_vals_.end(), 0.0);
    std::fill(col_scale_.begin(), col_scale_.end(), 0.0);
    for (std::size_t l = 0; l < K; ++l) lane_ok[l] = 1;
    if constexpr (kComplex) {
      std::fill(finite_acc_.begin(), finite_acc_.end(), 0.0);
    }
    for (std::size_t p = 0; p < s.scatter_.size(); ++p) {
      double* dst = lu + static_cast<std::size_t>(s.scatter_[p]) * K * kComp;
      double* scale =
          col_scale_.data() + static_cast<std::size_t>(s.scatter_col_[p]) * K;
      for (std::size_t l = 0; l < K; ++l) {
        const T v = src(p * K + l);
        if constexpr (kComplex) {
          // Track |re|+|im| instead of the hypot of the exact scales: it
          // brackets the true magnitude within 2x (m/2 <= |v| <= m for
          // finite v), which is all the pivot screen below needs, and it is
          // branch-free vector math instead of a libm call per lane. The
          // running sum poisons to NaN/inf the moment any entry does, which
          // routes that lane to the exact path.
          const double re = v.real(), im = v.imag();
          dst[l] += re;
          dst[K + l] += im;
          const double m = std::fabs(re) + std::fabs(im);
          scale[l] = std::max(scale[l], m);
          finite_acc_[l] += m;
        } else {
          dst[l] += v;
          scale[l] = std::max(scale[l], detail::mag_of(v));
        }
      }
    }
    if constexpr (kComplex) {
      for (std::size_t l = 0; l < K; ++l) {
        lane_exact_[l] = finite_acc_[l] < std::numeric_limits<double>::max()
                             ? static_cast<unsigned char>(0)
                             : static_cast<unsigned char>(1);
        if (lane_exact_[l] != 0) fill_exact_scale(src, l);
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      const double* piv =
          lu + static_cast<std::size_t>(s.diag_slot_[k]) * K * kComp;
      const double* scale = col_scale_.data() + k * K;
      for (std::size_t l = 0; l < K; ++l) {
        if (lane_ok[l] == 0) {
          // Dead lane: the scalar elimination bailed out at its first failed
          // pivot, so no further decisions exist to mirror. Zero inverse
          // pivots keep the surviving lanes' passes finite.
          store(inv_piv_.data(), l, K, T{});
          continue;
        }
        bool ok = false;
        if constexpr (kComplex) {
          // Conservative screen on the |re|+|im| bounds: certifies the
          // overwhelmingly common "pivot comfortably passes" case without
          // any hypot. Inconclusive lanes switch to the exact per-column
          // scales (max of std::abs), so the accept/reject decision — and
          // therefore every factor — is always the exact one. A NaN pivot
          // component makes the screen comparison false, which is exactly
          // the conservative direction.
          if (lane_exact_[l] == 0) {
            const double ub = scale[l];
            const double piv_lb =
                0.5 * (std::fabs(piv[l]) + std::fabs(piv[K + l]));
            if (piv_lb > kPivotRelTol * ub &&
                0.5 * ub >= std::numeric_limits<double>::min()) {
              ok = true;
            } else {
              fill_exact_scale(src, l);
              lane_exact_[l] = 1;
            }
          }
          if (lane_exact_[l] != 0) {
            const double esc = exact_scale_[k * K + l];
            ok = !(!(detail::mag_of(load(piv, l, K)) > kPivotRelTol * esc) ||
                   esc < std::numeric_limits<double>::min());
          }
        } else {
          // NaN fails the lane: !(mag > tol*scale).
          ok = !(!(detail::mag_of(load(piv, l, K)) > kPivotRelTol * scale[l]) ||
                 scale[l] < std::numeric_limits<double>::min());
        }
        lane_ok[l] = static_cast<unsigned char>(lane_ok[l] & (ok ? 1 : 0));
        // Division goes through the std::complex operator (Smith's
        // algorithm rounding).
        store(inv_piv_.data(), l, K,
              lane_ok[l] != 0 ? T(1) / load(piv, l, K) : T{});
      }
      const int l0 = s.lcol_ptr_[k], l1 = s.lcol_ptr_[k + 1];
      const int u0 = s.urow_ptr_[k], u1 = s.urow_ptr_[k + 1];
      const int* upd = s.upd_slot_.data() + s.upd_ptr_[k];
      for (int lp = l0; lp < l1; ++lp) {
        double* __restrict lrow =
            lu + static_cast<std::size_t>(s.lcol_slot_[lp]) * K * kComp;
        const double* __restrict ip = inv_piv_.data();
        std::size_t zero_lanes = 0;
        for (std::size_t l = 0; l < K; ++l) {
          if constexpr (kComplex) {
            const double lr = lrow[l], li = lrow[K + l];
            lrow[l] = lr * ip[l] - li * ip[K + l];
            lrow[K + l] = lr * ip[K + l] + li * ip[l];
            if (lrow[l] == 0.0 && lrow[K + l] == 0.0) ++zero_lanes;
          } else {
            lrow[l] *= ip[l];
            if (lrow[l] == 0.0) ++zero_lanes;
          }
        }
        if (zero_lanes == K) {
          upd += (u1 - u0);
          continue;
        }
        if (zero_lanes == 0) {
          for (int up = u0; up < u1; ++up) {
            double* __restrict tgt =
                lu + static_cast<std::size_t>(*upd++) * K * kComp;
            const double* __restrict urow =
                lu + static_cast<std::size_t>(s.urow_slot_[up]) * K * kComp;
            for (std::size_t l = 0; l < K; ++l) {
              if constexpr (kComplex) {
                tgt[l] -= lrow[l] * urow[l] - lrow[K + l] * urow[K + l];
                tgt[K + l] -= lrow[l] * urow[K + l] + lrow[K + l] * urow[l];
              } else {
                tgt[l] -= lrow[l] * urow[l];
              }
            }
          }
        } else {
          for (int up = u0; up < u1; ++up) {
            double* __restrict tgt =
                lu + static_cast<std::size_t>(*upd++) * K * kComp;
            const double* __restrict urow =
                lu + static_cast<std::size_t>(s.urow_slot_[up]) * K * kComp;
            for (std::size_t l = 0; l < K; ++l) {
              if constexpr (kComplex) {
                if (lrow[l] != 0.0 || lrow[K + l] != 0.0) {
                  tgt[l] -= lrow[l] * urow[l] - lrow[K + l] * urow[K + l];
                  tgt[K + l] -= lrow[l] * urow[K + l] + lrow[K + l] * urow[l];
                }
              } else {
                if (lrow[l] != 0.0) tgt[l] -= lrow[l] * urow[l];
              }
            }
          }
        }
      }
    }
  }

  template <std::size_t KC>
  void solve_impl(const T* b, T* x) const {
    const SparseLuSymbolic& s = *sym_;
    const std::size_t n = s.n_;
    const std::size_t K = KC != 0 ? KC : lanes_;
    const double* const lu = lu_vals_.data();
    double* const y = y_.data();
    // z = P_r b; forward L (unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      double* __restrict yi = y + i * K * kComp;
      const T* bi = b + static_cast<std::size_t>(s.prow_[i]) * K;
      for (std::size_t l = 0; l < K; ++l) store(yi, l, K, bi[l]);
      for (int p = s.lrow_ptr_[i]; p < s.lrow_ptr_[i + 1]; ++p) {
        const double* __restrict lv =
            lu + static_cast<std::size_t>(s.lrow_slot_[p]) * K * kComp;
        const double* __restrict yj =
            y + static_cast<std::size_t>(s.lrow_idx_[p]) * K * kComp;
        fnmadd(yi, lv, yj, K);
      }
    }
    // Backward U; then x = P_c^T y.
    for (std::size_t ii = n; ii-- > 0;) {
      double* __restrict yi = y + ii * K * kComp;
      for (int p = s.urow_ptr_[ii]; p < s.urow_ptr_[ii + 1]; ++p) {
        const double* __restrict uv =
            lu + static_cast<std::size_t>(s.urow_slot_[p]) * K * kComp;
        const double* __restrict yj =
            y + static_cast<std::size_t>(s.urow_idx_[p]) * K * kComp;
        fnmadd(yi, uv, yj, K);
      }
      const double* dv =
          lu + static_cast<std::size_t>(s.diag_slot_[ii]) * K * kComp;
      for (std::size_t l = 0; l < K; ++l) {
        store(yi, l, K, load(yi, l, K) / load(dv, l, K));
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      T* xj = x + static_cast<std::size_t>(s.pcol_[j]) * K;
      const double* yj = y + j * K * kComp;
      for (std::size_t l = 0; l < K; ++l) xj[l] = load(yj, l, K);
    }
  }

  template <std::size_t KC>
  void solve_transposed_impl(const T* b, T* x) const {
    const SparseLuSymbolic& s = *sym_;
    const std::size_t n = s.n_;
    const std::size_t K = KC != 0 ? KC : lanes_;
    const double* const lu = lu_vals_.data();
    double* const y = y_.data();
    // B^T = U^T L^T with B = P_r A P_c: solve U^T w = P_c^T-permuted b.
    for (std::size_t j = 0; j < n; ++j) {
      double* __restrict yj = y + j * K * kComp;
      const T* bj = b + static_cast<std::size_t>(s.pcol_[j]) * K;
      for (std::size_t l = 0; l < K; ++l) store(yj, l, K, bj[l]);
      for (int p = s.ucol_ptr_[j]; p < s.ucol_ptr_[j + 1]; ++p) {
        const double* __restrict uv =
            lu + static_cast<std::size_t>(s.ucol_slot_[p]) * K * kComp;
        const double* __restrict yi =
            y + static_cast<std::size_t>(s.ucol_idx_[p]) * K * kComp;
        fnmadd(yj, uv, yi, K);
      }
      const double* dv =
          lu + static_cast<std::size_t>(s.diag_slot_[j]) * K * kComp;
      for (std::size_t l = 0; l < K; ++l) {
        store(yj, l, K, load(yj, l, K) / load(dv, l, K));
      }
    }
    // L^T v = w (unit upper in transpose).
    for (std::size_t kk = n; kk-- > 0;) {
      double* __restrict yk = y + kk * K * kComp;
      for (int p = s.lcol_ptr_[kk]; p < s.lcol_ptr_[kk + 1]; ++p) {
        const double* __restrict lv =
            lu + static_cast<std::size_t>(s.lcol_slot_[p]) * K * kComp;
        const double* __restrict yi =
            y + static_cast<std::size_t>(s.lcol_idx_[p]) * K * kComp;
        fnmadd(yk, lv, yi, K);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      T* xi = x + static_cast<std::size_t>(s.prow_[i]) * K;
      const double* yi = y + i * K * kComp;
      for (std::size_t l = 0; l < K; ++l) xi[l] = load(yi, l, K);
    }
  }

  /// Load/store lane l of a split slot block of K lanes as the element type.
  static T load(const double* slot, std::size_t l, std::size_t K) {
    if constexpr (kComplex) {
      return T(slot[l], slot[K + l]);
    } else {
      return slot[l];
    }
  }
  static void store(double* slot, std::size_t l, std::size_t K, T v) {
    if constexpr (kComplex) {
      slot[l] = v.real();
      slot[K + l] = v.imag();
    } else {
      slot[l] = v;
    }
  }

  /// Recompute lane l's per-column pivot scales exactly (max of std::abs
  /// over the column's A entries). Called only when the cheap screen in
  /// refactor() is inconclusive or the lane's values are not all finite.
  template <typename Src>
  void fill_exact_scale(Src src, std::size_t l) {
    const SparseLuSymbolic& s = *sym_;
    const std::size_t K = lanes_;
    for (std::size_t k = 0; k < s.n_; ++k) exact_scale_[k * K + l] = 0.0;
    for (std::size_t p = 0; p < s.scatter_.size(); ++p) {
      double& sc =
          exact_scale_[static_cast<std::size_t>(s.scatter_col_[p]) * K + l];
      sc = std::max(sc, detail::mag_of(src(p * K + l)));
    }
  }

  /// acc -= a * b over all lanes of split slot blocks (the substitution
  /// inner loop; the complex multiply is the Annex-G fast-path expansion).
  static void fnmadd(double* __restrict acc, const double* __restrict a,
                     const double* __restrict b, std::size_t K) {
    if constexpr (kComplex) {
      for (std::size_t l = 0; l < K; ++l) {
        acc[l] -= a[l] * b[l] - a[K + l] * b[K + l];
        acc[K + l] -= a[l] * b[K + l] + a[K + l] * b[l];
      }
    } else {
      for (std::size_t l = 0; l < K; ++l) acc[l] -= a[l] * b[l];
    }
  }

  const SparseLuSymbolic* sym_ = nullptr;
  std::size_t lanes_ = 0;
  // Split SoA storage: slot s's lane values start at [s * lanes * kComp];
  // for complex the imaginary parts follow the real block at +lanes.
  std::vector<double> lu_vals_;
  std::vector<double> col_scale_;  // [permuted_col * lanes + lane]
  std::vector<double> inv_piv_;    // per-lane inverse pivot scratch (split)
  mutable std::vector<double> y_;  // substitution scratch (split)
  // Complex-only pivot-screen state: running |re|+|im| sum per lane (NaN/
  // inf poison detection), per-lane "use exact scales" flag, and the exact
  // per-column scales for flagged lanes.
  std::vector<double> finite_acc_;
  std::vector<unsigned char> lane_exact_;
  std::vector<double> exact_scale_;
};

}  // namespace autockt::linalg
