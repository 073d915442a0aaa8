#include "spice/workspace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "trace/names.hpp"
#include "trace/trace.hpp"

namespace autockt::spice {

namespace {

// Kernel counters, one block per simulating thread. A block is written only
// by its own thread (relaxed atomics: telemetry, not synchronization), and
// is aligned to its own cache lines, so the counts a Newton iteration adds
// never touch a line another thread writes. Aggregated across topologies
// and threads by kernel_stats_snapshot(); surfaced through
// SizingProblem::eval_stats().
enum Counter : std::size_t {
  kNewton,
  kSymbolic,
  kNumeric,
  kDenseFallback,
  kWarmAttempts,
  kWarmHits,
  kBatchRefactor,
  kBatchLanes,
  kBatchLaneFallback,
  kCounterCount
};

struct CounterBlock;

// The live threads' blocks, and the sum of the blocks of threads that have
// exited. Taken only when a thread registers or exits, and by snapshot and
// reset, never per count.
struct CounterRegistry {
  std::mutex mutex;
  std::vector<CounterBlock*> live;
  std::array<long, kCounterCount> retired{};
};

CounterRegistry& counter_registry() {
  static auto* registry = new CounterRegistry();  // leaked: outlives threads
  return *registry;
}

// One thread's counters: registered on the thread's first count, folded
// into the retired total when the thread exits.
struct alignas(64) CounterBlock {
  std::array<std::atomic<long>, kCounterCount> v{};

  CounterBlock() {
    CounterRegistry& r = counter_registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.live.push_back(this);
  }
  ~CounterBlock() {
    CounterRegistry& r = counter_registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      r.retired[i] += v[i].load(std::memory_order_relaxed);
    }
    r.live.erase(std::find(r.live.begin(), r.live.end(), this));
  }
  CounterBlock(const CounterBlock&) = delete;
  CounterBlock& operator=(const CounterBlock&) = delete;
};

void count(Counter c, long n = 1) {
  thread_local CounterBlock block;
  block.v[c].fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

KernelStats kernel_stats_snapshot() {
  std::array<long, kCounterCount> sum{};
  {
    CounterRegistry& r = counter_registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    sum = r.retired;
    for (const CounterBlock* block : r.live) {
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        sum[i] += block->v[i].load(std::memory_order_relaxed);
      }
    }
  }
  KernelStats s;
  s.newton_iterations = sum[kNewton];
  s.symbolic_factorizations = sum[kSymbolic];
  s.numeric_factorizations = sum[kNumeric];
  s.dense_fallbacks = sum[kDenseFallback];
  s.warm_start_attempts = sum[kWarmAttempts];
  s.warm_start_hits = sum[kWarmHits];
  s.batch_refactorizations = sum[kBatchRefactor];
  s.batch_lanes = sum[kBatchLanes];
  s.batch_lane_fallbacks = sum[kBatchLaneFallback];
  return s;
}

void reset_kernel_stats() {
  CounterRegistry& r = counter_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.retired.fill(0);
  for (CounterBlock* block : r.live) {
    for (std::atomic<long>& v : block->v) {
      v.store(0, std::memory_order_relaxed);
    }
  }
}

namespace kernel_counters {
// These are the single choke points for Newton/warm-start accounting, so
// the trace counters mirror the kernel counters here rather than at every
// solver call site.
void add_newton_iterations(long n) {
  count(kNewton, n);
  trace::counter(trace::names::kSimNewtonIterations, n);
}
void add_warm_start_attempt() {
  count(kWarmAttempts);
  trace::counter(trace::names::kSimWarmStartAttempt);
}
void add_warm_start_hit() {
  count(kWarmHits);
  trace::counter(trace::names::kSimWarmStartHit);
}
}  // namespace kernel_counters

SimWorkspace::SimWorkspace(const Circuit& circuit, Sides sides)
    : n_(circuit.num_unknowns()),
      num_nodes_(circuit.num_nodes()),
      num_branches_(circuit.num_branches()),
      num_devices_(circuit.devices().size()),
      zero_voltages_(circuit.num_nodes(), 0.0) {
  trace::TraceSpan span(trace::names::kSimBuildWorkspace);
  if (sides != Sides::Complex) build_real(circuit);
  if (sides != Sides::Real) build_complex(circuit);
}

void SimWorkspace::build_real(const Circuit& circuit) {
  real_built_ = true;
  rhs_real_.assign(n_, 0.0);
  x_real_.assign(n_, 0.0);

  // ---- real pattern discovery -------------------------------------------
  {
    linalg::PatternBuilder builder(n_);
    RealStamp ctx{MnaSink(builder), rhs_real_, zero_voltages_};
    ctx.num_nodes = num_nodes_;
    circuit.declare_real_pattern(ctx);
    // Weak slots: structurally present, often numerically zero — kept out
    // of the pivot order while strong candidates remain.
    for (NodeId n = 1; n < num_nodes_; ++n) {
      builder.add(n - 1, n - 1, /*weak=*/true);  // gmin homotopy diagonal
    }
    for (const CapElement& e : circuit.collect_caps()) {
      // Transient companion conductance footprint (zero during DC solves).
      const bool g1 = e.n1 == kGround, g2 = e.n2 == kGround;
      if (!g1) builder.add(e.n1 - 1, e.n1 - 1, true);
      if (!g2) builder.add(e.n2 - 1, e.n2 - 1, true);
      if (!g1 && !g2) {
        builder.add(e.n1 - 1, e.n2 - 1, true);
        builder.add(e.n2 - 1, e.n1 - 1, true);
      }
    }
    std::fill(rhs_real_.begin(), rhs_real_.end(), 0.0);  // discovery scribbles
    pattern_real_ = linalg::SparsePattern(std::move(builder));
  }
  sym_real_ = linalg::SparseLuSymbolic(pattern_real_, pattern_real_.weak());
  count(kSymbolic);
  lu_real_ = linalg::SparseLuNumeric<double>(sym_real_);
  vals_real_.assign(pattern_real_.nnz(), 0.0);
  real_slot_row_.resize(pattern_real_.nnz());
  real_slot_col_.resize(pattern_real_.nnz());
  for (std::size_t s = 0; s < pattern_real_.nnz(); ++s) {
    real_slot_row_[s] = pattern_real_.row_of_slot(s);
    real_slot_col_[s] = pattern_real_.col_of_slot(s);
  }
  dense_real_ = linalg::RealMatrix(n_, n_);
  slots_real_ = pattern_real_.slot_table();
}

void SimWorkspace::build_complex(const Circuit& circuit) {
  cplx_built_ = true;
  rhs_cplx_.assign(n_, {0.0, 0.0});
  x_cplx_.assign(n_, {0.0, 0.0});

  // ---- complex (G/C union) pattern discovery ----------------------------
  {
    linalg::PatternBuilder builder(n_);
    ComplexStamp ctx{MnaSink(builder), MnaSink(builder),
                     rhs_cplx_, zero_voltages_};
    ctx.num_nodes = num_nodes_;
    circuit.declare_complex_pattern(ctx);
    std::fill(rhs_cplx_.begin(), rhs_cplx_.end(),
              std::complex<double>{0.0, 0.0});
    pattern_cplx_ = linalg::SparsePattern(std::move(builder));
  }
  sym_cplx_ = linalg::SparseLuSymbolic(pattern_cplx_, pattern_cplx_.weak());
  count(kSymbolic);
  lu_cplx_ = linalg::SparseLuNumeric<std::complex<double>>(sym_cplx_);
  g_vals_.assign(pattern_cplx_.nnz(), 0.0);
  c_vals_.assign(pattern_cplx_.nnz(), 0.0);
  y_vals_.assign(pattern_cplx_.nnz(), {0.0, 0.0});
  cplx_slot_row_.resize(pattern_cplx_.nnz());
  cplx_slot_col_.resize(pattern_cplx_.nnz());
  for (std::size_t s = 0; s < pattern_cplx_.nnz(); ++s) {
    cplx_slot_row_[s] = pattern_cplx_.row_of_slot(s);
    cplx_slot_col_[s] = pattern_cplx_.col_of_slot(s);
  }
  dense_cplx_ = linalg::ComplexMatrix(n_, n_);
  slots_cplx_ = pattern_cplx_.slot_table();
}

bool SimWorkspace::compatible(const Circuit& circuit) const {
  return circuit.num_unknowns() == n_ && circuit.num_nodes() == num_nodes_ &&
         circuit.num_branches() == num_branches_ &&
         circuit.devices().size() == num_devices_;
}

RealStamp SimWorkspace::begin_real(const std::vector<double>& node_v) {
  trace::counter(trace::names::kSimRestampReal);
  std::fill(vals_real_.begin(), vals_real_.end(), 0.0);
  std::fill(rhs_real_.begin(), rhs_real_.end(), 0.0);
  RealStamp ctx{MnaSink(slots_real_.data(), n_, vals_real_.data()),
                rhs_real_, node_v};
  ctx.num_nodes = num_nodes_;
  return ctx;
}

bool SimWorkspace::factor_real() {
  trace::TraceSpan span(trace::names::kSimFactorReal);
  count(kNumeric);
  if (sym_real_.ok() && lu_real_.refactor(vals_real_.data())) {
    real_sparse_ok_ = true;
    return true;
  }
  // Scale-aware pivot check failed (or the pattern is structurally odd):
  // deterministic dense partial-pivot fallback on the same values.
  real_sparse_ok_ = false;
  count(kDenseFallback);
  trace::counter(trace::names::kSimDenseFallback);
  dense_real_.fill(0.0);
  for (std::size_t s = 0; s < vals_real_.size(); ++s) {
    dense_real_(static_cast<std::size_t>(real_slot_row_[s]),
                static_cast<std::size_t>(real_slot_col_[s])) += vals_real_[s];
  }
  dense_lu_real_.emplace(dense_real_);
  return dense_lu_real_->ok();
}

const std::vector<double>& SimWorkspace::solve_real() {
  trace::TraceSpan span(trace::names::kSimSolveReal);
  if (real_sparse_ok_) {
    lu_real_.solve(rhs_real_.data(), x_real_.data());
  } else {
    x_real_ = dense_lu_real_->solve(rhs_real_);
  }
  return x_real_;
}

ComplexStamp SimWorkspace::begin_complex(
    const std::vector<double>& op_voltages) {
  trace::counter(trace::names::kSimRestampComplex);
  std::fill(g_vals_.begin(), g_vals_.end(), 0.0);
  std::fill(c_vals_.begin(), c_vals_.end(), 0.0);
  std::fill(rhs_cplx_.begin(), rhs_cplx_.end(),
            std::complex<double>{0.0, 0.0});
  ComplexStamp ctx{MnaSink(slots_cplx_.data(), n_, g_vals_.data()),
                   MnaSink(slots_cplx_.data(), n_, c_vals_.data()),
                   rhs_cplx_, op_voltages};
  ctx.num_nodes = num_nodes_;
  return ctx;
}

bool SimWorkspace::factor_complex(double omega) {
  trace::TraceSpan span(trace::names::kSimFactorComplex);
  count(kNumeric);
  for (std::size_t s = 0; s < y_vals_.size(); ++s) {
    y_vals_[s] = {g_vals_[s], omega * c_vals_[s]};
  }
  if (sym_cplx_.ok() && lu_cplx_.refactor(y_vals_.data())) {
    cplx_sparse_ok_ = true;
    return true;
  }
  cplx_sparse_ok_ = false;
  count(kDenseFallback);
  trace::counter(trace::names::kSimDenseFallback);
  dense_cplx_.fill({0.0, 0.0});
  for (std::size_t s = 0; s < y_vals_.size(); ++s) {
    dense_cplx_(static_cast<std::size_t>(cplx_slot_row_[s]),
                static_cast<std::size_t>(cplx_slot_col_[s])) += y_vals_[s];
  }
  dense_lu_cplx_.emplace(dense_cplx_);
  return dense_lu_cplx_->ok();
}

const std::vector<std::complex<double>>& SimWorkspace::solve_complex() {
  trace::TraceSpan span(trace::names::kSimSolveComplex);
  if (cplx_sparse_ok_) {
    lu_cplx_.solve(rhs_cplx_.data(), x_cplx_.data());
  } else {
    x_cplx_ = dense_lu_cplx_->solve(rhs_cplx_);
  }
  return x_cplx_;
}

const std::vector<std::complex<double>>&
SimWorkspace::solve_complex_transposed(
    const std::vector<std::complex<double>>& rhs) {
  trace::TraceSpan span(trace::names::kSimSolveComplex);
  if (cplx_sparse_ok_) {
    lu_cplx_.solve_transposed(rhs.data(), x_cplx_.data());
  } else {
    x_cplx_ = dense_lu_cplx_->solve_transposed(rhs);
  }
  return x_cplx_;
}

void SimWorkspace::ensure_real_batch(std::size_t lanes) {
  if (lanes == batch_lanes_real_) return;
  batch_lanes_real_ = lanes;
  lu_real_batch_.reset(sym_real_, lanes);
  batch_vals_real_.assign(pattern_real_.nnz() * lanes, 0.0);
  batch_rhs_real_.assign(n_ * lanes, 0.0);
  batch_x_real_.assign(n_ * lanes, 0.0);
  real_lane_ok_.assign(lanes, 0);
  real_lane_solvable_.assign(lanes, 0);
  dense_lu_real_lanes_.assign(lanes, std::nullopt);
}

void SimWorkspace::commit_real_batch_lane(std::size_t lane) {
  const std::size_t K = batch_lanes_real_;
  for (std::size_t s = 0; s < vals_real_.size(); ++s) {
    batch_vals_real_[s * K + lane] = vals_real_[s];
  }
  for (std::size_t i = 0; i < n_; ++i) {
    batch_rhs_real_[i * K + lane] = rhs_real_[i];
  }
}

bool SimWorkspace::factor_real_batch() {
  trace::TraceSpan span(trace::names::kSimFactorRealBatch);
  const std::size_t K = batch_lanes_real_;
  count(kNumeric, static_cast<long>(K));
  count(kBatchRefactor);
  count(kBatchLanes, static_cast<long>(K));
  trace::counter(trace::names::kSimBatchRefactor);
  trace::counter(trace::names::kSimBatchLanes, static_cast<std::int64_t>(K));
  if (sym_real_.ok()) {
    lu_real_batch_.refactor(batch_vals_real_.data(), real_lane_ok_.data());
  } else {
    std::fill(real_lane_ok_.begin(), real_lane_ok_.end(), 0);
  }
  bool all_ok = true;
  for (std::size_t l = 0; l < K; ++l) {
    if (real_lane_ok_[l] != 0) {
      real_lane_solvable_[l] = 1;
      dense_lu_real_lanes_[l].reset();
      continue;
    }
    // Same deterministic fallback as the scalar kernel, applied per lane:
    // dense partial-pivot LU over exactly this lane's stamped values.
    count(kDenseFallback);
    count(kBatchLaneFallback);
    trace::counter(trace::names::kSimDenseFallback);
    trace::counter(trace::names::kSimBatchLaneFallback);
    dense_real_.fill(0.0);
    for (std::size_t s = 0; s < vals_real_.size(); ++s) {
      dense_real_(static_cast<std::size_t>(real_slot_row_[s]),
                  static_cast<std::size_t>(real_slot_col_[s])) +=
          batch_vals_real_[s * K + l];
    }
    dense_lu_real_lanes_[l].emplace(dense_real_);
    real_lane_solvable_[l] =
        static_cast<unsigned char>(dense_lu_real_lanes_[l]->ok() ? 1 : 0);
    all_ok = all_ok && real_lane_solvable_[l] != 0;
  }
  return all_ok;
}

bool SimWorkspace::real_lane_solvable(std::size_t lane) const {
  return real_lane_solvable_[lane] != 0;
}

const std::vector<double>& SimWorkspace::solve_real_batch() {
  trace::TraceSpan span(trace::names::kSimSolveRealBatch);
  const std::size_t K = batch_lanes_real_;
  lu_real_batch_.solve(batch_rhs_real_.data(), batch_x_real_.data());
  for (std::size_t l = 0; l < K; ++l) {
    if (real_lane_ok_[l] != 0 || !dense_lu_real_lanes_[l].has_value() ||
        !dense_lu_real_lanes_[l]->ok()) {
      continue;
    }
    std::vector<double> b(n_);
    for (std::size_t i = 0; i < n_; ++i) b[i] = batch_rhs_real_[i * K + l];
    const std::vector<double> x = dense_lu_real_lanes_[l]->solve(b);
    for (std::size_t i = 0; i < n_; ++i) batch_x_real_[i * K + l] = x[i];
  }
  return batch_x_real_;
}

void SimWorkspace::real_lane_solution(std::size_t lane,
                                      std::vector<double>& out) const {
  const std::size_t K = batch_lanes_real_;
  out.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = batch_x_real_[i * K + lane];
}

void SimWorkspace::ensure_complex_batch(std::size_t lanes) {
  if (lanes == batch_lanes_cplx_) return;
  batch_lanes_cplx_ = lanes;
  lu_cplx_batch_.reset(sym_cplx_, lanes);
  batch_g_vals_.assign(pattern_cplx_.nnz() * lanes, 0.0);
  batch_c_vals_.assign(pattern_cplx_.nnz() * lanes, 0.0);
  batch_rhs_cplx_.assign(n_ * lanes, {0.0, 0.0});
  batch_x_cplx_.assign(n_ * lanes, {0.0, 0.0});
  batch_bcast_cplx_.assign(n_ * lanes, {0.0, 0.0});
  cplx_lane_ok_.assign(lanes, 0);
  cplx_lane_solvable_.assign(lanes, 0);
  dense_lu_cplx_lanes_.assign(lanes, std::nullopt);
}

void SimWorkspace::commit_complex_batch_lane(std::size_t lane) {
  const std::size_t K = batch_lanes_cplx_;
  for (std::size_t s = 0; s < g_vals_.size(); ++s) {
    batch_g_vals_[s * K + lane] = g_vals_[s];
    batch_c_vals_[s * K + lane] = c_vals_[s];
  }
  for (std::size_t i = 0; i < n_; ++i) {
    batch_rhs_cplx_[i * K + lane] = rhs_cplx_[i];
  }
}

bool SimWorkspace::factor_complex_batch(double omega) {
  trace::TraceSpan span(trace::names::kSimFactorComplexBatch);
  const std::size_t K = batch_lanes_cplx_;
  count(kNumeric, static_cast<long>(K));
  count(kBatchRefactor);
  count(kBatchLanes, static_cast<long>(K));
  trace::counter(trace::names::kSimBatchRefactor);
  trace::counter(trace::names::kSimBatchLanes, static_cast<std::int64_t>(K));
  if (sym_cplx_.ok()) {
    // Fused y = g + i*omega*c formation inside the kernel's scatter pass:
    // no interleaved complex array is materialized per frequency point.
    lu_cplx_batch_.refactor_gc(batch_g_vals_.data(), batch_c_vals_.data(),
                               omega, cplx_lane_ok_.data());
  } else {
    std::fill(cplx_lane_ok_.begin(), cplx_lane_ok_.end(), 0);
  }
  bool all_ok = true;
  for (std::size_t l = 0; l < K; ++l) {
    if (cplx_lane_ok_[l] != 0) {
      cplx_lane_solvable_[l] = 1;
      dense_lu_cplx_lanes_[l].reset();
      continue;
    }
    count(kDenseFallback);
    count(kBatchLaneFallback);
    trace::counter(trace::names::kSimDenseFallback);
    trace::counter(trace::names::kSimBatchLaneFallback);
    dense_cplx_.fill({0.0, 0.0});
    for (std::size_t s = 0; s < g_vals_.size(); ++s) {
      dense_cplx_(static_cast<std::size_t>(cplx_slot_row_[s]),
                  static_cast<std::size_t>(cplx_slot_col_[s])) +=
          std::complex<double>(batch_g_vals_[s * K + l],
                               omega * batch_c_vals_[s * K + l]);
    }
    dense_lu_cplx_lanes_[l].emplace(dense_cplx_);
    cplx_lane_solvable_[l] =
        static_cast<unsigned char>(dense_lu_cplx_lanes_[l]->ok() ? 1 : 0);
    all_ok = all_ok && cplx_lane_solvable_[l] != 0;
  }
  return all_ok;
}

bool SimWorkspace::complex_lane_solvable(std::size_t lane) const {
  return cplx_lane_solvable_[lane] != 0;
}

const std::vector<std::complex<double>>& SimWorkspace::solve_complex_batch() {
  trace::TraceSpan span(trace::names::kSimSolveComplexBatch);
  const std::size_t K = batch_lanes_cplx_;
  lu_cplx_batch_.solve(batch_rhs_cplx_.data(), batch_x_cplx_.data());
  for (std::size_t l = 0; l < K; ++l) {
    if (cplx_lane_ok_[l] != 0 || !dense_lu_cplx_lanes_[l].has_value() ||
        !dense_lu_cplx_lanes_[l]->ok()) {
      continue;
    }
    std::vector<std::complex<double>> b(n_);
    for (std::size_t i = 0; i < n_; ++i) b[i] = batch_rhs_cplx_[i * K + l];
    const std::vector<std::complex<double>> x =
        dense_lu_cplx_lanes_[l]->solve(b);
    for (std::size_t i = 0; i < n_; ++i) batch_x_cplx_[i * K + l] = x[i];
  }
  return batch_x_cplx_;
}

const std::vector<std::complex<double>>&
SimWorkspace::solve_complex_transposed_batch(
    const std::vector<std::complex<double>>& rhs) {
  trace::TraceSpan span(trace::names::kSimSolveComplexBatch);
  const std::size_t K = batch_lanes_cplx_;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t l = 0; l < K; ++l) batch_bcast_cplx_[i * K + l] = rhs[i];
  }
  lu_cplx_batch_.solve_transposed(batch_bcast_cplx_.data(),
                                  batch_x_cplx_.data());
  for (std::size_t l = 0; l < K; ++l) {
    if (cplx_lane_ok_[l] != 0 || !dense_lu_cplx_lanes_[l].has_value() ||
        !dense_lu_cplx_lanes_[l]->ok()) {
      continue;
    }
    const std::vector<std::complex<double>> x =
        dense_lu_cplx_lanes_[l]->solve_transposed(rhs);
    for (std::size_t i = 0; i < n_; ++i) batch_x_cplx_[i * K + l] = x[i];
  }
  return batch_x_cplx_;
}

void SimWorkspace::complex_lane_solution(
    std::size_t lane, std::vector<std::complex<double>>& out) const {
  const std::size_t K = batch_lanes_cplx_;
  out.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = batch_x_cplx_[i * K + lane];
}

SimWorkspace& workspace_for(const Circuit& circuit,
                            const std::string& topology_key) {
  thread_local std::unordered_map<std::string, std::unique_ptr<SimWorkspace>>
      cache;
  std::unique_ptr<SimWorkspace>& slot = cache[topology_key];
  if (!slot || !slot->compatible(circuit)) {
    slot = std::make_unique<SimWorkspace>(circuit);
  }
  return *slot;
}

}  // namespace autockt::spice
