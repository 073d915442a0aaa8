#pragma once
// ScalarLuReference<T>: the one-value-array sparse LU kernel that the batch
// kernel (linalg::SparseLuNumericBatch) replaced. The tests keep it as the
// batch kernel's bitwise reference: every lane of a batched refactorization
// and solve must equal this kernel's result on that lane's values alone.

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <limits>
#include <vector>

#include "linalg/sparse_lu.hpp"

namespace autockt::linalg {

/// The scalar numeric kernel: one value array per refactorization, with
/// std::complex arithmetic for complex T. It replays the same compiled
/// program as SparseLuNumericBatch<T>, which must match it bit for bit on
/// every lane.
template <typename T>
class ScalarLuReference {
 public:
  ScalarLuReference() = default;

  explicit ScalarLuReference(const SparseLuSymbolic& symbolic)
      : sym_(&symbolic),
        lu_vals_(symbolic.lu_nnz(), T{}),
        col_scale_(symbolic.size(), 0.0),
        y_(symbolic.size(), T{}) {}

  static constexpr double kPivotRelTol =
      SparseLuNumericBatch<T>::kPivotRelTol;

  /// Refactorize from `a_vals` (aligned with the A pattern the symbolic
  /// analysis was built from). Returns false — leaving no usable factors —
  /// when a pivot fails the scale-aware check.
  bool refactor(const T* a_vals) {
    const SparseLuSymbolic& s = *sym_;
    const std::size_t n = s.n_;
    std::fill(lu_vals_.begin(), lu_vals_.end(), T{});
    std::fill(col_scale_.begin(), col_scale_.end(), 0.0);
    for (std::size_t p = 0; p < s.scatter_.size(); ++p) {
      const T v = a_vals[p];
      lu_vals_[static_cast<std::size_t>(s.scatter_[p])] += v;
      double& scale = col_scale_[static_cast<std::size_t>(s.scatter_col_[p])];
      scale = std::max(scale, detail::mag_of(v));
    }
    for (std::size_t k = 0; k < n; ++k) {
      const T piv = lu_vals_[static_cast<std::size_t>(s.diag_slot_[k])];
      const double scale = col_scale_[k];
      if (!(detail::mag_of(piv) > kPivotRelTol * scale) ||
          scale < std::numeric_limits<double>::min()) {
        return false;
      }
      const T inv_piv = T(1) / piv;
      const int l0 = s.lcol_ptr_[k], l1 = s.lcol_ptr_[k + 1];
      const int u0 = s.urow_ptr_[k], u1 = s.urow_ptr_[k + 1];
      const int* upd = s.upd_slot_.data() + s.upd_ptr_[k];
      for (int lp = l0; lp < l1; ++lp) {
        T& lval = lu_vals_[static_cast<std::size_t>(s.lcol_slot_[lp])];
        lval *= inv_piv;
        if (lval == T{}) {
          upd += (u1 - u0);
          continue;
        }
        for (int up = u0; up < u1; ++up) {
          lu_vals_[static_cast<std::size_t>(*upd++)] -=
              lval * lu_vals_[static_cast<std::size_t>(s.urow_slot_[up])];
        }
      }
    }
    return true;
  }

  /// Solve A x = b (b and x must not alias; sizes n).
  void solve(const T* b, T* x) const {
    const SparseLuSymbolic& s = *sym_;
    const std::size_t n = s.n_;
    // z = P_r b; forward L (unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      T acc = b[static_cast<std::size_t>(s.prow_[i])];
      for (int p = s.lrow_ptr_[i]; p < s.lrow_ptr_[i + 1]; ++p) {
        acc -= lu_vals_[static_cast<std::size_t>(s.lrow_slot_[p])] *
               y_[static_cast<std::size_t>(s.lrow_idx_[p])];
      }
      y_[i] = acc;
    }
    // Backward U; then x = P_c^T y.
    for (std::size_t ii = n; ii-- > 0;) {
      T acc = y_[ii];
      for (int p = s.urow_ptr_[ii]; p < s.urow_ptr_[ii + 1]; ++p) {
        acc -= lu_vals_[static_cast<std::size_t>(s.urow_slot_[p])] *
               y_[static_cast<std::size_t>(s.urow_idx_[p])];
      }
      y_[ii] = acc / lu_vals_[static_cast<std::size_t>(s.diag_slot_[ii])];
    }
    for (std::size_t j = 0; j < n; ++j)
      x[static_cast<std::size_t>(s.pcol_[j])] = y_[j];
  }

  /// Solve A^T x = b (plain transpose — what adjoint noise analysis needs).
  void solve_transposed(const T* b, T* x) const {
    const SparseLuSymbolic& s = *sym_;
    const std::size_t n = s.n_;
    // B^T = U^T L^T with B = P_r A P_c: solve U^T w = P_c^T-permuted b.
    for (std::size_t j = 0; j < n; ++j) {
      T acc = b[static_cast<std::size_t>(s.pcol_[j])];
      for (int p = s.ucol_ptr_[j]; p < s.ucol_ptr_[j + 1]; ++p) {
        acc -= lu_vals_[static_cast<std::size_t>(s.ucol_slot_[p])] *
               y_[static_cast<std::size_t>(s.ucol_idx_[p])];
      }
      y_[j] = acc / lu_vals_[static_cast<std::size_t>(s.diag_slot_[j])];
    }
    // L^T v = w (unit upper in transpose).
    for (std::size_t kk = n; kk-- > 0;) {
      T acc = y_[kk];
      for (int p = s.lcol_ptr_[kk]; p < s.lcol_ptr_[kk + 1]; ++p) {
        acc -= lu_vals_[static_cast<std::size_t>(s.lcol_slot_[p])] *
               y_[static_cast<std::size_t>(s.lcol_idx_[p])];
      }
      y_[kk] = acc;
    }
    for (std::size_t i = 0; i < n; ++i)
      x[static_cast<std::size_t>(s.prow_[i])] = y_[i];
  }

 private:
  const SparseLuSymbolic* sym_ = nullptr;
  std::vector<T> lu_vals_;
  std::vector<double> col_scale_;
  mutable std::vector<T> y_;  // substitution scratch (solves are sequential)
};

}  // namespace autockt::linalg
