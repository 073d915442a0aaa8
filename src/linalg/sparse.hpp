#pragma once
// Sparse MNA storage: triplet-assembled structural patterns frozen into
// compressed-sparse-column (CSC) form. A pattern resolves (row, col) to its
// value slot by binary search over the column, O(log nnz_col), and stays
// O(nnz) in memory. The hot stamping path does not search: slot_table()
// expands the pattern once into an n x n table of slots, which the owner of
// the value arrays (spice::SimWorkspace) keeps beside the n x n matrices of
// its dense fallback, so every stamp resolves in O(1).
//
// The split matters for the simulation kernel: a circuit topology's pattern
// is discovered ONCE (PatternBuilder), frozen into a SparsePattern shared by
// every evaluation of that topology, and each Newton iteration / frequency
// point merely zeroes and re-accumulates the value array — no node maps, no
// reallocation, no dense clears.

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace autockt::linalg {

/// Collects structural (row, col) positions during pattern discovery.
/// Duplicates are welcome and merged. A position declared `weak` is
/// structurally present but expected to be numerically zero in common
/// operation (gmin homotopy diagonals, transient companion conductances at
/// DC); the sparse LU avoids weak slots as pivots while strong candidates
/// remain. Any strong declaration of a position overrides weak ones.
class PatternBuilder {
 public:
  explicit PatternBuilder(std::size_t n) : n_(n) {}

  std::size_t size() const { return n_; }

  void add(std::size_t row, std::size_t col, bool weak = false) {
    assert(row < n_ && col < n_);
    entries_.push_back(
        {static_cast<int>(col), static_cast<int>(row), weak ? 1 : 0});
  }

  struct Entry {
    int col, row, weak;  // col first: entries sort col-major
    friend bool operator<(const Entry& a, const Entry& b) {
      if (a.col != b.col) return a.col < b.col;
      if (a.row != b.row) return a.row < b.row;
      return a.weak < b.weak;  // strong (0) sorts first and wins the merge
    }
  };

  /// Sorted (col-major, then row) deduplicated entries; duplicate positions
  /// merge to strong unless every declaration was weak.
  std::vector<Entry> sorted_unique() && {
    std::sort(entries_.begin(), entries_.end());
    std::vector<Entry> out;
    out.reserve(entries_.size());
    for (const Entry& e : entries_) {
      if (!out.empty() && out.back().col == e.col && out.back().row == e.row)
        continue;  // first occurrence (strong if any was strong) wins
      out.push_back(e);
    }
    return out;
  }

 private:
  std::size_t n_ = 0;
  std::vector<Entry> entries_;
};

/// Frozen structural pattern of an n x n matrix in CSC form. Immutable once
/// built; value arrays (one per concurrent assembly) live outside so one
/// pattern serves real and complex assemblies alike.
class SparsePattern {
 public:
  SparsePattern() = default;

  explicit SparsePattern(PatternBuilder builder) : n_(builder.size()) {
    const auto entries = std::move(builder).sorted_unique();
    col_ptr_.assign(n_ + 1, 0);
    row_idx_.reserve(entries.size());
    weak_.reserve(entries.size());
    for (const auto& e : entries) {
      ++col_ptr_[static_cast<std::size_t>(e.col) + 1];
      row_idx_.push_back(e.row);
      weak_.push_back(static_cast<char>(e.weak));
    }
    for (std::size_t c = 0; c < n_; ++c) col_ptr_[c + 1] += col_ptr_[c];
  }

  std::size_t size() const { return n_; }
  std::size_t nnz() const { return row_idx_.size(); }

  /// Per-slot weak flags (see PatternBuilder::add).
  const std::vector<char>& weak() const { return weak_; }

  /// Slot of (row, col) in the value array; -1 when structurally zero.
  int slot(std::size_t row, std::size_t col) const {
    const int* first = row_idx_.data() + col_ptr_[col];
    const int* last = row_idx_.data() + col_ptr_[col + 1];
    const int* it = std::lower_bound(first, last, static_cast<int>(row));
    if (it == last || *it != static_cast<int>(row)) return -1;
    return static_cast<int>(it - row_idx_.data());
  }

  /// Every slot(row, col) at once, row-major: entry [row * n + col] is the
  /// value slot of (row, col), -1 where structurally zero. O(n^2) memory,
  /// so the pattern builds it on request and does not keep it.
  std::vector<int> slot_table() const {
    std::vector<int> table(n_ * n_, -1);
    for (std::size_t c = 0; c < n_; ++c) {
      for (int s = col_ptr_[c]; s < col_ptr_[c + 1]; ++s) {
        table[static_cast<std::size_t>(row_idx_[s]) * n_ + c] = s;
      }
    }
    return table;
  }

  /// Row index stored at value slot `s`.
  int row_of_slot(std::size_t s) const { return row_idx_[s]; }

  /// Column of value slot `s` (O(log n); used for scatter-map setup only).
  int col_of_slot(std::size_t s) const {
    const auto it = std::upper_bound(col_ptr_.begin(), col_ptr_.end(),
                                     static_cast<int>(s));
    return static_cast<int>(it - col_ptr_.begin()) - 1;
  }

  const std::vector<int>& col_ptr() const { return col_ptr_; }
  const std::vector<int>& row_idx() const { return row_idx_; }

 private:
  std::size_t n_ = 0;
  std::vector<int> col_ptr_;  // size n+1
  std::vector<int> row_idx_;  // size nnz, sorted within each column
  std::vector<char> weak_;    // size nnz
};

}  // namespace autockt::linalg
