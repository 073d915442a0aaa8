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
// is aligned to its own cache lines, so the counts a thread adds never touch
// a line another thread writes. Aggregated across topologies and threads by
// kernel_stats_snapshot(); surfaced through SizingProblem::eval_stats().
enum Counter : std::size_t {
  kNewton,
  kSymbolic,
  kNumeric,
  kDenseFallback,
  kWarmAttempts,
  kWarmHits,
  kPasses,
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

CounterBlock& block() {
  thread_local CounterBlock b;
  return b;
}

// Rare events count straight into the thread's block.
void count(Counter c, long n = 1) {
  block().v[c].fetch_add(n, std::memory_order_relaxed);
}

// Per-iteration events (Newton iterations, lane refactorizations, passes)
// are tallied here with plain adds and reach the block when the analysis
// call's CallScope closes: one locked add per counter and call, none per
// iteration. Constant-initialized, so reading it needs no TLS guard.
thread_local std::array<long, kCounterCount> t_tally{};

void tally(Counter c, long n = 1) { t_tally[c] += n; }

std::atomic<bool> g_force_dense{false};

}  // namespace

KernelStats kernel_stats_snapshot() {
  std::array<long, kCounterCount> sum{};
  {
    CounterRegistry& r = counter_registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    sum = r.retired;
    for (const CounterBlock* b : r.live) {
      for (std::size_t i = 0; i < kCounterCount; ++i) {
        sum[i] += b->v[i].load(std::memory_order_relaxed);
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
  s.batch_refactorizations = sum[kPasses];
  return s;
}

void reset_kernel_stats() {
  CounterRegistry& r = counter_registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.retired.fill(0);
  for (CounterBlock* b : r.live) {
    for (std::atomic<long>& v : b->v) {
      v.store(0, std::memory_order_relaxed);
    }
  }
}

namespace kernel_counters {
// These are the single choke points for Newton/warm-start accounting, so
// the trace counters mirror the kernel counters here rather than at every
// solver call site.
void add_newton_iterations(long n) {
  tally(kNewton, n);
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
CallScope::~CallScope() {
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    if (t_tally[c] != 0) {
      count(static_cast<Counter>(c), t_tally[c]);
      t_tally[c] = 0;
    }
  }
}
}  // namespace kernel_counters

void detail::force_dense_fallback(bool on) {
  g_force_dense.store(on, std::memory_order_relaxed);
}

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

  // ---- real pattern discovery -------------------------------------------
  {
    linalg::PatternBuilder builder(n_);
    std::vector<double> scribble(n_, 0.0);  // discovery writes the RHS too
    RealStamp ctx{MnaSink(builder), scribble, zero_voltages_};
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
    pattern_real_ = linalg::SparsePattern(std::move(builder));
  }
  sym_real_ = linalg::SparseLuSymbolic(pattern_real_, pattern_real_.weak());
  count(kSymbolic);
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

  // ---- complex (G/C union) pattern discovery ----------------------------
  {
    linalg::PatternBuilder builder(n_);
    std::vector<std::complex<double>> scribble(n_, {0.0, 0.0});
    ComplexStamp ctx{MnaSink(builder), MnaSink(builder), scribble,
                     zero_voltages_};
    ctx.num_nodes = num_nodes_;
    circuit.declare_complex_pattern(ctx);
    pattern_cplx_ = linalg::SparsePattern(std::move(builder));
  }
  sym_cplx_ = linalg::SparseLuSymbolic(pattern_cplx_, pattern_cplx_.weak());
  count(kSymbolic);
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

void SimWorkspace::begin_real(std::size_t lanes) {
  if (lanes != lanes_real_) {
    lanes_real_ = lanes;
    lu_real_.reset(sym_real_, lanes);
    vals_real_.resize(pattern_real_.nnz() * lanes);
    rhs_real_.resize(n_ * lanes);
    x_real_.resize(n_ * lanes);
    real_lane_ok_.resize(lanes);
    real_lane_solvable_.resize(lanes);
    dense_lu_real_.resize(lanes);
  }
  std::fill(vals_real_.begin(), vals_real_.end(), 0.0);
  std::fill(rhs_real_.begin(), rhs_real_.end(), 0.0);
}

RealStamp SimWorkspace::stamp_real(std::size_t lane,
                                   const std::vector<double>& node_v) {
  trace::counter(trace::names::kSimRestampReal);
  const std::size_t K = lanes_real_;
  RealStamp ctx{MnaSink(slots_real_.data(), n_, vals_real_.data() + lane, K),
                LaneColumn<double>(rhs_real_.data() + lane, K), node_v};
  ctx.num_nodes = num_nodes_;
  return ctx;
}

bool SimWorkspace::factor_real() {
  trace::TraceSpan span(trace::names::kSimFactorReal);
  const std::size_t K = lanes_real_;
  tally(kNumeric, static_cast<long>(K));
  tally(kPasses);
  if (sym_real_.ok() && !g_force_dense.load(std::memory_order_relaxed)) {
    lu_real_.refactor(vals_real_.data(), real_lane_ok_.data());
  } else {
    std::fill(real_lane_ok_.begin(), real_lane_ok_.end(), 0);
  }
  bool all_ok = true;
  for (std::size_t l = 0; l < K; ++l) {
    if (real_lane_ok_[l] != 0) {
      real_lane_solvable_[l] = 1;
      dense_lu_real_[l].reset();
      continue;
    }
    // Scale-aware pivot check failed (or the pattern is structurally odd):
    // deterministic dense partial-pivot LU over exactly this lane's values.
    count(kDenseFallback);
    trace::counter(trace::names::kSimDenseFallback);
    dense_real_.fill(0.0);
    for (std::size_t s = 0; s < pattern_real_.nnz(); ++s) {
      dense_real_(static_cast<std::size_t>(real_slot_row_[s]),
                  static_cast<std::size_t>(real_slot_col_[s])) +=
          vals_real_[s * K + l];
    }
    dense_lu_real_[l].emplace(dense_real_);
    real_lane_solvable_[l] =
        static_cast<unsigned char>(dense_lu_real_[l]->ok() ? 1 : 0);
    all_ok = all_ok && real_lane_solvable_[l] != 0;
  }
  return all_ok;
}

bool SimWorkspace::real_lane_solvable(std::size_t lane) const {
  return real_lane_solvable_[lane] != 0;
}

void SimWorkspace::solve_real() {
  trace::TraceSpan span(trace::names::kSimSolveReal);
  const std::size_t K = lanes_real_;
  // No sparse solve when every lane went dense: the symbolic program may
  // not even exist (a structurally singular pattern).
  if (std::find(real_lane_ok_.begin(), real_lane_ok_.end(), 1) !=
      real_lane_ok_.end()) {
    lu_real_.solve(rhs_real_.data(), x_real_.data());
  }
  for (std::size_t l = 0; l < K; ++l) {
    if (real_lane_ok_[l] != 0 || real_lane_solvable_[l] == 0) continue;
    std::vector<double> b(n_);
    for (std::size_t i = 0; i < n_; ++i) b[i] = rhs_real_[i * K + l];
    const std::vector<double> x = dense_lu_real_[l]->solve(b);
    for (std::size_t i = 0; i < n_; ++i) x_real_[i * K + l] = x[i];
  }
}

void SimWorkspace::real_lane_solution(std::size_t lane,
                                      std::vector<double>& out) const {
  const std::size_t K = lanes_real_;
  out.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = x_real_[i * K + lane];
}

void SimWorkspace::begin_complex(std::size_t lanes) {
  if (lanes != lanes_cplx_) {
    lanes_cplx_ = lanes;
    lu_cplx_.reset(sym_cplx_, lanes);
    g_vals_.resize(pattern_cplx_.nnz() * lanes);
    c_vals_.resize(pattern_cplx_.nnz() * lanes);
    rhs_cplx_.resize(n_ * lanes);
    x_cplx_.resize(n_ * lanes);
    bcast_cplx_.resize(n_ * lanes);
    cplx_lane_ok_.resize(lanes);
    cplx_lane_solvable_.resize(lanes);
    dense_lu_cplx_.resize(lanes);
  }
  std::fill(g_vals_.begin(), g_vals_.end(), 0.0);
  std::fill(c_vals_.begin(), c_vals_.end(), 0.0);
  std::fill(rhs_cplx_.begin(), rhs_cplx_.end(),
            std::complex<double>{0.0, 0.0});
}

ComplexStamp SimWorkspace::stamp_complex(
    std::size_t lane, const std::vector<double>& op_voltages) {
  trace::counter(trace::names::kSimRestampComplex);
  const std::size_t K = lanes_cplx_;
  ComplexStamp ctx{
      MnaSink(slots_cplx_.data(), n_, g_vals_.data() + lane, K),
      MnaSink(slots_cplx_.data(), n_, c_vals_.data() + lane, K),
      LaneColumn<std::complex<double>>(rhs_cplx_.data() + lane, K),
      op_voltages};
  ctx.num_nodes = num_nodes_;
  return ctx;
}

bool SimWorkspace::factor_complex(double omega) {
  trace::TraceSpan span(trace::names::kSimFactorComplex);
  const std::size_t K = lanes_cplx_;
  tally(kNumeric, static_cast<long>(K));
  tally(kPasses);
  if (sym_cplx_.ok() && !g_force_dense.load(std::memory_order_relaxed)) {
    // Fused y = g + i*omega*c formation inside the kernel's scatter pass:
    // no interleaved complex array is materialized per frequency point.
    lu_cplx_.refactor_gc(g_vals_.data(), c_vals_.data(), omega,
                         cplx_lane_ok_.data());
  } else {
    std::fill(cplx_lane_ok_.begin(), cplx_lane_ok_.end(), 0);
  }
  bool all_ok = true;
  for (std::size_t l = 0; l < K; ++l) {
    if (cplx_lane_ok_[l] != 0) {
      cplx_lane_solvable_[l] = 1;
      dense_lu_cplx_[l].reset();
      continue;
    }
    count(kDenseFallback);
    trace::counter(trace::names::kSimDenseFallback);
    dense_cplx_.fill({0.0, 0.0});
    for (std::size_t s = 0; s < pattern_cplx_.nnz(); ++s) {
      dense_cplx_(static_cast<std::size_t>(cplx_slot_row_[s]),
                  static_cast<std::size_t>(cplx_slot_col_[s])) +=
          std::complex<double>(g_vals_[s * K + l], omega * c_vals_[s * K + l]);
    }
    dense_lu_cplx_[l].emplace(dense_cplx_);
    cplx_lane_solvable_[l] =
        static_cast<unsigned char>(dense_lu_cplx_[l]->ok() ? 1 : 0);
    all_ok = all_ok && cplx_lane_solvable_[l] != 0;
  }
  return all_ok;
}

bool SimWorkspace::complex_lane_solvable(std::size_t lane) const {
  return cplx_lane_solvable_[lane] != 0;
}

void SimWorkspace::solve_complex() {
  trace::TraceSpan span(trace::names::kSimSolveComplex);
  const std::size_t K = lanes_cplx_;
  if (std::find(cplx_lane_ok_.begin(), cplx_lane_ok_.end(), 1) !=
      cplx_lane_ok_.end()) {
    lu_cplx_.solve(rhs_cplx_.data(), x_cplx_.data());
  }
  for (std::size_t l = 0; l < K; ++l) {
    if (cplx_lane_ok_[l] != 0 || cplx_lane_solvable_[l] == 0) continue;
    std::vector<std::complex<double>> b(n_);
    for (std::size_t i = 0; i < n_; ++i) b[i] = rhs_cplx_[i * K + l];
    const std::vector<std::complex<double>> x = dense_lu_cplx_[l]->solve(b);
    for (std::size_t i = 0; i < n_; ++i) x_cplx_[i * K + l] = x[i];
  }
}

void SimWorkspace::solve_complex_transposed(
    const std::vector<std::complex<double>>& rhs) {
  trace::TraceSpan span(trace::names::kSimSolveComplex);
  const std::size_t K = lanes_cplx_;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t l = 0; l < K; ++l) bcast_cplx_[i * K + l] = rhs[i];
  }
  if (std::find(cplx_lane_ok_.begin(), cplx_lane_ok_.end(), 1) !=
      cplx_lane_ok_.end()) {
    lu_cplx_.solve_transposed(bcast_cplx_.data(), x_cplx_.data());
  }
  for (std::size_t l = 0; l < K; ++l) {
    if (cplx_lane_ok_[l] != 0 || cplx_lane_solvable_[l] == 0) continue;
    const std::vector<std::complex<double>> x =
        dense_lu_cplx_[l]->solve_transposed(rhs);
    for (std::size_t i = 0; i < n_; ++i) x_cplx_[i * K + l] = x[i];
  }
}

void SimWorkspace::complex_lane_solution(
    std::size_t lane, std::vector<std::complex<double>>& out) const {
  const std::size_t K = lanes_cplx_;
  out.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = x_cplx_[i * K + lane];
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
