#include "nn/mlp.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GLIBC__) && \
    __has_include(<sys/platform/x86.h>)
#include <sys/platform/x86.h>  // CPU_FEATURE_ACTIVE, glibc >= 2.33
#endif

namespace autockt::nn {

Mlp::Mlp(std::vector<int> layer_sizes, Activation act, std::uint64_t seed,
         double final_scale)
    : sizes_(std::move(layer_sizes)), act_(act) {
  if (sizes_.size() < 2) {
    throw std::invalid_argument("Mlp needs at least input and output sizes");
  }
  for (int width : sizes_) {
    if (width < 1) {
      throw std::invalid_argument("Mlp: layer width " + std::to_string(width) +
                                  " is below 1");
    }
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i + 1 < sizes_.size(); ++i) {
    Layer layer;
    layer.in = sizes_[i];
    layer.out = sizes_[i + 1];
    layer.w_off = offset;
    offset += static_cast<std::size_t>(layer.in) * layer.out;
    layer.b_off = offset;
    offset += static_cast<std::size_t>(layer.out);
    layers_.push_back(layer);
  }
  params_.assign(offset, 0.0);
  grads_.assign(offset, 0.0);

  // Xavier-uniform init; output layer additionally scaled.
  util::Rng rng(seed);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const double bound = std::sqrt(6.0 / (layer.in + layer.out));
    const double scale = li + 1 == layers_.size() ? final_scale : 1.0;
    for (int i = 0; i < layer.in * layer.out; ++i) {
      params_[layer.w_off + static_cast<std::size_t>(i)] =
          scale * rng.uniform(-bound, bound);
    }
    // biases start at zero
  }
}

double Mlp::activate(double v) const {
  return act_ == Activation::Tanh ? std::tanh(v) : (v > 0.0 ? v : 0.0);
}

std::vector<double> Mlp::forward(const std::vector<double>& x) const {
  std::vector<double> cur = x;
  std::vector<double> next;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    next.assign(static_cast<std::size_t>(layer.out), 0.0);
    const bool last = li + 1 == layers_.size();
    for (int o = 0; o < layer.out; ++o) {
      const double* w =
          params_.data() + layer.w_off + static_cast<std::size_t>(o) * layer.in;
      double acc = params_[layer.b_off + static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.in; ++i) {
        acc += w[i] * cur[static_cast<std::size_t>(i)];
      }
      next[static_cast<std::size_t>(o)] = last ? acc : activate(acc);
    }
    cur.swap(next);
  }
  return cur;
}

std::vector<double> Mlp::forward_batch(const std::vector<double>& x,
                                       int rows) const {
  if (rows < 0 ||
      x.size() != static_cast<std::size_t>(rows) *
                      static_cast<std::size_t>(sizes_.front())) {
    throw std::invalid_argument("Mlp::forward_batch: bad batch shape");
  }
  const std::size_t n = static_cast<std::size_t>(rows);
  // Ping-pong between two buffers; layer 0 reads the caller's rows.
  std::vector<double> even, odd;
  const double* cur = x.data();
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    std::vector<double>& next = li % 2 == 0 ? even : odd;
    next.resize(n * static_cast<std::size_t>(layers_[li].out));
    layer_forward(layers_[li], li + 1 == layers_.size(), cur, rows,
                  next.data());
    cur = next.data();
  }
  return layers_.size() % 2 == 1 ? std::move(even) : std::move(odd);
}

Mlp::Trace Mlp::forward_trace(const std::vector<double>& x) const {
  Trace trace;
  trace.inputs.reserve(layers_.size());
  std::vector<double> cur = x;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    trace.inputs.push_back(cur);
    std::vector<double> next(static_cast<std::size_t>(layer.out), 0.0);
    const bool last = li + 1 == layers_.size();
    for (int o = 0; o < layer.out; ++o) {
      const double* w =
          params_.data() + layer.w_off + static_cast<std::size_t>(o) * layer.in;
      double acc = params_[layer.b_off + static_cast<std::size_t>(o)];
      for (int i = 0; i < layer.in; ++i) {
        acc += w[i] * cur[static_cast<std::size_t>(i)];
      }
      next[static_cast<std::size_t>(o)] = last ? acc : activate(acc);
    }
    cur.swap(next);
  }
  trace.output = cur;
  return trace;
}

std::vector<double> Mlp::backward(const Trace& trace,
                                  const std::vector<double>& d_output) {
  std::vector<double> d_cur = d_output;  // dLoss/d(post-activation of layer)
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const Layer& layer = layers_[li];
    const std::vector<double>& input = trace.inputs[li];
    const bool last = li + 1 == layers_.size();

    // dLoss/d(pre-activation), using the cached post-activations (for tanh,
    // d act/d pre = 1 - a^2; for relu, 1[a > 0]).
    const std::vector<double>& post =
        last ? trace.output : trace.inputs[li + 1];
    std::vector<double> d_pre(static_cast<std::size_t>(layer.out), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      double g = d_cur[static_cast<std::size_t>(o)];
      if (!last) {
        const double a = post[static_cast<std::size_t>(o)];
        g *= act_ == Activation::Tanh ? (1.0 - a * a) : (a > 0.0 ? 1.0 : 0.0);
      }
      d_pre[static_cast<std::size_t>(o)] = g;
    }

    // Parameter gradients.
    for (int o = 0; o < layer.out; ++o) {
      const double g = d_pre[static_cast<std::size_t>(o)];
      double* gw =
          grads_.data() + layer.w_off + static_cast<std::size_t>(o) * layer.in;
      for (int i = 0; i < layer.in; ++i) {
        gw[i] += g * input[static_cast<std::size_t>(i)];
      }
      grads_[layer.b_off + static_cast<std::size_t>(o)] += g;
    }

    // Propagate to the layer input.
    std::vector<double> d_in(static_cast<std::size_t>(layer.in), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      const double g = d_pre[static_cast<std::size_t>(o)];
      const double* w =
          params_.data() + layer.w_off + static_cast<std::size_t>(o) * layer.in;
      for (int i = 0; i < layer.in; ++i) {
        d_in[static_cast<std::size_t>(i)] += g * w[i];
      }
    }
    d_cur.swap(d_in);
  }
  return d_cur;
}

// ---- row-blocked batch kernels ----------------------------------------------
// Every batch entry point runs on three kernels, written once over a lane
// type V and built at two widths: `Pair`, two doubles, for any target, and
// on x86 `Quad`, four doubles, compiled for AVX2 alone. Each kernel carries
// many independent accumulator chains where the per-row reference carries
// one, and each chain still adds its terms in the reference's order:
// - the forward copies each 4-row block of its input into an [input][row]
//   scratch, so that one load holds one input of all four rows, and runs
//   kOutBlock outputs per pass, then halves of that down to 1; each
//   (row, output) sum starts from the bias and adds in input order;
// - the delta kernel loads each weight row's columns once for kRowBlock
//   rows and keeps a running sum per (row, column) over the outputs, on
//   column blocks of two vectors, one vector, a Pair (at four lanes), then
//   one column;
// - the gradient kernel runs two gradient rows per pass, so each load of a
//   row's inputs feeds both, and keeps one running sum per (gradient row,
//   column) while the rows stream past in order, on column blocks of four
//   vectors, one vector, a Pair (at four lanes), then one column.
// A short row block repeats its last row in the spare lanes and drops them
// at the store, so every block runs the same code. Each lane does the
// scalar code's multiply and add. C++ lets GCC contract a * b + c into an
// FMA wherever the target has one, which would change the bits, so the
// four-lane code targets "avx2" and never "fma" (AVX-512F implies FMA).

namespace {

constexpr int kRowBlock = 4;

/// Two or four doubles in one vector register: GCC's and Clang's generic
/// vector types. A Pair compiles for any target (as two scalar lanes where
/// there is no such register). As plain loops, GCC vectorizes the delta and
/// gradient kernels across the summed index instead, keeping each sum's
/// order with lane shuffles, and the delta kernel took about 1.5 times as
/// long.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

template <class V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(double));

/// Outputs per forward pass, kOutBlock * kRowBlock / kLanes accumulators:
/// 8 at four lanes, and 4 at two, where 8 would take all 16 SSE registers.
template <class V>
constexpr int kOutBlock = kLanes<V> == 2 ? 4 : 8;

// The kernel templates below are always inlined into one entry point per
// width and pass vectors by reference, so a Quad never crosses a call
// outside AVX2 code, where its calling convention would differ.

template <class V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}

template <class V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Every lane of v set to s, with no arithmetic (-0.0 stays -0.0).
template <class V>
[[gnu::always_inline]] inline void splat(V& v, double s) {
  double lanes[kLanes<V>];
  for (double& lane : lanes) lane = s;
  load(v, lanes);
}

/// Rows [r0, r0 + kRowBlock) of a row-major array with `stride` columns,
/// the rows at or past `end` replaced by row end - 1.
template <class T>
[[gnu::always_inline]] inline void block_rows(T* base, std::size_t stride,
                                              int r0, int end,
                                              T* (&rows)[kRowBlock]) {
  for (int j = 0; j < kRowBlock; ++j) {
    rows[j] = base + static_cast<std::size_t>(std::min(r0 + j, end - 1)) *
                         stride;
  }
}

/// y[j * out + k] = b[k] + sum_i w[k * in + i] * xt[i * kRowBlock + j],
/// summed in i order, for j < n and k < K: forward()'s pre-activation of
/// output k for row j of the block whose transpose is xt.
template <class V, int K>
[[gnu::always_inline]] inline void dot_block(const double* w, const double* b,
                                             std::size_t in, const double* xt,
                                             double* y, std::size_t out,
                                             int n) {
  constexpr int H = kRowBlock / kLanes<V>;  // vectors per input
  V acc[K][H];
  for (int k = 0; k < K; ++k) {
    for (int h = 0; h < H; ++h) splat(acc[k][h], b[k]);
  }
  for (std::size_t i = 0; i < in; ++i) {
    V xi[H];
    for (int h = 0; h < H; ++h) {
      load(xi[h], xt + i * kRowBlock + static_cast<std::size_t>(h) * kLanes<V>);
    }
    for (int k = 0; k < K; ++k) {
      const double wk = w[static_cast<std::size_t>(k) * in + i];
      for (int h = 0; h < H; ++h) acc[k][h] += wk * xi[h];
    }
  }
  // A constant trip count gives each lane a constant index, which keeps
  // acc in registers.
  for (int j = 0; j < kRowBlock; ++j) {
    if (j == n) break;
    for (int k = 0; k < K; ++k) {
      y[static_cast<std::size_t>(j) * out + k] =
          acc[k][j / kLanes<V>][j % kLanes<V>];
    }
  }
}

/// The pre-activations of `rows` row-major inputs x into y (rows x out):
/// the weights w are out x in, row-major, and xt has room for
/// in * kRowBlock doubles.
template <class V>
[[gnu::always_inline]] inline void forward_kernel(
    const double* w, const double* b, std::size_t in, std::size_t out,
    const double* x, int rows, double* y, double* xt) {
  constexpr int K = kOutBlock<V>;
  for (int r0 = 0; r0 < rows; r0 += kRowBlock) {
    const int n = std::min(kRowBlock, rows - r0);
    const double* xr[kRowBlock];
    block_rows(x, in, r0, rows, xr);
    for (std::size_t i = 0; i < in; ++i) {
      for (int j = 0; j < kRowBlock; ++j) xt[i * kRowBlock + j] = xr[j][i];
    }
    double* yb = y + static_cast<std::size_t>(r0) * out;
    std::size_t o = 0;
    for (; o + K <= out; o += K) {
      dot_block<V, K>(w + o * in, b + o, in, xt, yb + o, out, n);
    }
    if constexpr (K >= 8) {
      if (o + 4 <= out) {
        dot_block<V, 4>(w + o * in, b + o, in, xt, yb + o, out, n);
        o += 4;
      }
    }
    if (o + 2 <= out) {
      dot_block<V, 2>(w + o * in, b + o, in, xt, yb + o, out, n);
      o += 2;
    }
    if (o < out) dot_block<V, 1>(w + o * in, b + o, in, xt, yb + o, out, n);
  }
}

/// d[j][c0 + c] = sum_o g[j][o] * w[o * in + c0 + c] for j < n and
/// c < P * kLanes<V>, from 0.0 in o order: backward()'s dLoss/dInput of
/// row j.
template <class V, int P>
[[gnu::always_inline]] inline void delta_block(
    const double* const (&g)[kRowBlock], std::size_t out, const double* w,
    std::size_t in, std::size_t c0, double* const (&d)[kRowBlock], int n) {
  V s[kRowBlock][P];
  for (int j = 0; j < kRowBlock; ++j) {
    for (int p = 0; p < P; ++p) splat(s[j][p], 0.0);
  }
  for (std::size_t o = 0; o < out; ++o) {
    const double* wo = w + o * in + c0;
    V wp[P];
    for (int p = 0; p < P; ++p) load(wp[p], wo + p * kLanes<V>);
    for (int j = 0; j < kRowBlock; ++j) {
      const double gj = g[j][o];
      for (int p = 0; p < P; ++p) s[j][p] += gj * wp[p];
    }
  }
  for (int j = 0; j < n; ++j) {
    for (int p = 0; p < P; ++p) store(d[j] + c0 + p * kLanes<V>, s[j][p]);
  }
}

/// delta_block() for the one column c0.
[[gnu::always_inline]] inline void delta_column(
    const double* const (&g)[kRowBlock], std::size_t out, const double* w,
    std::size_t in, std::size_t c0, double* const (&d)[kRowBlock], int n) {
  double s[kRowBlock] = {};
  for (std::size_t o = 0; o < out; ++o) {
    const double wo = w[o * in + c0];
    for (int j = 0; j < kRowBlock; ++j) s[j] += g[j][o] * wo;
  }
  for (int j = 0; j < n; ++j) d[j][c0] = s[j];
}

/// Rows [begin, end) of `below` (rows x in) from the same rows of `delta`
/// (rows x out) through the weights w (out x in): dLoss/d(layer input).
template <class V>
[[gnu::always_inline]] inline void deltas_kernel(const double* delta,
                                                 std::size_t out,
                                                 const double* w,
                                                 std::size_t in, double* below,
                                                 int begin, int end) {
  constexpr std::size_t L = kLanes<V>;
  for (int r0 = begin; r0 < end; r0 += kRowBlock) {
    const int n = std::min(kRowBlock, end - r0);
    const double* g[kRowBlock];
    double* d[kRowBlock];
    block_rows(delta, out, r0, end, g);
    block_rows(below, in, r0, end, d);
    std::size_t c = 0;
    for (; c + 2 * L <= in; c += 2 * L) {
      delta_block<V, 2>(g, out, w, in, c, d, n);
    }
    if (c + L <= in) {
      delta_block<V, 1>(g, out, w, in, c, d, n);
      c += L;
    }
    if constexpr (L > 2) {
      if (c + 2 <= in) {
        delta_block<Pair, 1>(g, out, w, in, c, d, n);
        c += 2;
      }
    }
    if (c < in) delta_column(g, out, w, in, c, d, n);
  }
}

/// gw[q * in + c] += g[r * out + q] * x[r * in + c] for q < G and
/// c < P * kLanes<V>, rows in order: backward()'s weight-gradient update
/// of G adjacent outputs, one row at a time.
template <class V, int P, int G>
[[gnu::always_inline]] inline void grad_block(double* gw, const double* g,
                                              std::size_t out,
                                              const double* x, std::size_t in,
                                              int rows) {
  V s[G][P];
  for (int q = 0; q < G; ++q) {
    for (int p = 0; p < P; ++p) load(s[q][p], gw + q * in + p * kLanes<V>);
  }
  for (int r = 0; r < rows; ++r) {
    const double* gr = g + static_cast<std::size_t>(r) * out;
    const double* xr = x + static_cast<std::size_t>(r) * in;
    for (int p = 0; p < P; ++p) {
      V xp;
      load(xp, xr + p * kLanes<V>);
      for (int q = 0; q < G; ++q) s[q][p] += gr[q] * xp;
    }
  }
  for (int q = 0; q < G; ++q) {
    for (int p = 0; p < P; ++p) store(gw + q * in + p * kLanes<V>, s[q][p]);
  }
}

/// grad_block() for the one column gw[q * in], q < G.
template <int G>
[[gnu::always_inline]] inline void grad_column(double* gw, const double* g,
                                               std::size_t out,
                                               const double* x, std::size_t in,
                                               int rows) {
  double s[G];
  for (int q = 0; q < G; ++q) s[q] = gw[q * in];
  for (int r = 0; r < rows; ++r) {
    const double xr = x[static_cast<std::size_t>(r) * in];
    const double* gr = g + static_cast<std::size_t>(r) * out;
    for (int q = 0; q < G; ++q) s[q] += gr[q] * xr;
  }
  for (int q = 0; q < G; ++q) gw[q * in] = s[q];
}

/// The weight rows gw[q * in, (q + 1) * in) and biases gb[q] of G adjacent
/// outputs q: each adds `rows` rows of delta (column q) times x, in row
/// order.
template <class V, int G>
[[gnu::always_inline]] inline void grad_rows(double* gw, double* gb,
                                             const double* g, std::size_t out,
                                             const double* x, std::size_t in,
                                             int rows) {
  constexpr std::size_t L = kLanes<V>;
  std::size_t c = 0;
  for (; c + 4 * L <= in; c += 4 * L) {
    grad_block<V, 4, G>(gw + c, g, out, x + c, in, rows);
  }
  for (; c + L <= in; c += L) {
    grad_block<V, 1, G>(gw + c, g, out, x + c, in, rows);
  }
  if constexpr (L > 2) {
    if (c + 2 <= in) {
      grad_block<Pair, 1, G>(gw + c, g, out, x + c, in, rows);
      c += 2;
    }
  }
  if (c < in) grad_column<G>(gw + c, g, out, x + c, in, rows);
  for (int q = 0; q < G; ++q) {
    double sum = gb[q];
    for (int r = 0; r < rows; ++r) {
      sum += g[static_cast<std::size_t>(r) * out + q];
    }
    gb[q] = sum;
  }
}

/// Adds `rows` rows of a layer's deltas (rows x out) times its inputs x
/// (rows x in), in row order, onto the weight rows gw[k * in, (k + 1) * in)
/// and biases gb[k] of its outputs k in [lo, hi), two outputs per pass.
template <class V>
[[gnu::always_inline]] inline void grads_kernel(double* gw, double* gb,
                                                const double* delta,
                                                std::size_t out,
                                                const double* x,
                                                std::size_t in, int rows,
                                                int lo, int hi) {
  int k = lo;
  for (; k + 2 <= hi; k += 2) {
    const std::size_t o = static_cast<std::size_t>(k);
    grad_rows<V, 2>(gw + o * in, gb + o, delta + o, out, x, in, rows);
  }
  if (k < hi) {
    const std::size_t o = static_cast<std::size_t>(k);
    grad_rows<V, 1>(gw + o * in, gb + o, delta + o, out, x, in, rows);
  }
}

/// One entry point per kernel and width; only these are called from
/// outside, with plain pointers and counts.
struct LaneKernels {
  void (*forward)(const double* w, const double* b, std::size_t in,
                  std::size_t out, const double* x, int rows, double* y,
                  double* xt);
  void (*deltas)(const double* delta, std::size_t out, const double* w,
                 std::size_t in, double* below, int begin, int end);
  void (*grads)(double* gw, double* gb, const double* delta, std::size_t out,
                const double* x, std::size_t in, int rows, int lo, int hi);
};

constexpr LaneKernels kPairKernels{&forward_kernel<Pair>, &deltas_kernel<Pair>,
                                   &grads_kernel<Pair>};

#if defined(__x86_64__) || defined(__i386__)

using Quad = double __attribute__((vector_size(4 * sizeof(double))));

__attribute__((target("avx2"))) void forward_quad(
    const double* w, const double* b, std::size_t in, std::size_t out,
    const double* x, int rows, double* y, double* xt) {
  forward_kernel<Quad>(w, b, in, out, x, rows, y, xt);
}

__attribute__((target("avx2"))) void deltas_quad(const double* delta,
                                                 std::size_t out,
                                                 const double* w,
                                                 std::size_t in, double* below,
                                                 int begin, int end) {
  deltas_kernel<Quad>(delta, out, w, in, below, begin, end);
}

__attribute__((target("avx2"))) void grads_quad(double* gw, double* gb,
                                                const double* delta,
                                                std::size_t out,
                                                const double* x,
                                                std::size_t in, int rows,
                                                int lo, int hi) {
  grads_kernel<Quad>(gw, gb, delta, out, x, in, rows, lo, hi);
}

constexpr LaneKernels kQuadKernels{&forward_quad, &deltas_quad, &grads_quad};

#endif

/// 4 where the CPU runs AVX2 code, else 2. glibc's answer follows its
/// hwcaps tunable (glibc.cpu.hwcaps=-AVX2 masks it), so a rerun of the
/// tests with AVX2 masked runs the two-lane kernels;
/// __builtin_cpu_supports ignores that mask.
int detect_lanes() {
#if defined(__x86_64__) || defined(__i386__)
#ifdef CPU_FEATURE_ACTIVE
  return CPU_FEATURE_ACTIVE(AVX2) ? 4 : 2;
#else
  return __builtin_cpu_supports("avx2") ? 4 : 2;
#endif
#else
  return 2;
#endif
}

std::atomic<int>& lanes_in_use() {
  static std::atomic<int> lanes{detail::native_kernel_lanes()};
  return lanes;
}

const LaneKernels& lane_kernels() {
#if defined(__x86_64__) || defined(__i386__)
  if (lanes_in_use().load(std::memory_order_relaxed) == 4) return kQuadKernels;
#endif
  return kPairKernels;
}

}  // namespace

int detail::native_kernel_lanes() {
  static const int lanes = detect_lanes();
  return lanes;
}

int detail::kernel_lanes() {
  return lanes_in_use().load(std::memory_order_relaxed);
}

void detail::set_kernel_lanes(int lanes) {
  if (lanes != 2 && lanes != native_kernel_lanes()) {
    throw std::invalid_argument(
        "nn::detail::set_kernel_lanes: " + std::to_string(lanes) +
        " lanes; this CPU runs 2 or " + std::to_string(native_kernel_lanes()));
  }
  lanes_in_use().store(lanes, std::memory_order_relaxed);
}

void Mlp::layer_forward(const Layer& layer, bool last, const double* x,
                        int rows, double* y) const {
  const std::size_t in = static_cast<std::size_t>(layer.in);
  const std::size_t out = static_cast<std::size_t>(layer.out);
  // The transposed row block, one per thread: forward_batch() may run on
  // several threads at once, and a loaded net's widths reach kMaxLoadWidth.
  thread_local std::vector<double> xt;
  if (xt.size() < in * kRowBlock) xt.resize(in * kRowBlock);
  lane_kernels().forward(params_.data() + layer.w_off,
                         params_.data() + layer.b_off, in, out, x, rows, y,
                         xt.data());
  // The activation after the dot products: no libm call between them.
  if (last) return;
  const std::size_t n = static_cast<std::size_t>(rows) * out;
  for (std::size_t k = 0; k < n; ++k) y[k] = activate(y[k]);
}

Mlp::BatchTrace Mlp::batch_trace(int capacity) const {
  if (capacity < 0) {
    throw std::invalid_argument("Mlp::batch_trace: negative capacity");
  }
  const std::size_t cap = static_cast<std::size_t>(capacity);
  BatchTrace trace;
  trace.capacity = capacity;
  for (int width : sizes_) {
    trace.acts.emplace_back(cap * static_cast<std::size_t>(width), 0.0);
  }
  for (const Layer& layer : layers_) {
    trace.deltas.emplace_back(cap * static_cast<std::size_t>(layer.out), 0.0);
  }
  return trace;
}

void Mlp::forward_trace_batch(const double* x, int rows,
                              BatchTrace& trace) const {
  const std::size_t cap = static_cast<std::size_t>(trace.capacity);
  bool fits = rows >= 0 && rows <= trace.capacity &&
              trace.acts.size() == sizes_.size() &&
              trace.deltas.size() == layers_.size();
  for (std::size_t l = 0; fits && l < sizes_.size(); ++l) {
    fits = trace.acts[l].size() == cap * static_cast<std::size_t>(sizes_[l]);
  }
  for (std::size_t l = 0; fits && l < layers_.size(); ++l) {
    fits = trace.deltas[l].size() ==
           cap * static_cast<std::size_t>(layers_[l].out);
  }
  if (!fits) {
    throw std::invalid_argument(
        "Mlp::forward_trace_batch: trace does not fit this net and batch");
  }
  std::copy(x, x + static_cast<std::size_t>(rows) * sizes_.front(),
            trace.input());
  trace.rows = rows;
  forward_rows(trace, 0, rows);
}

void Mlp::forward_rows(BatchTrace& trace, int begin, int end) const {
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    layer_forward(layer, li + 1 == layers_.size(),
                  trace.acts[li].data() +
                      static_cast<std::size_t>(begin) * layer.in,
                  end - begin,
                  trace.acts[li + 1].data() +
                      static_cast<std::size_t>(begin) * layer.out);
  }
}

void Mlp::backward_batch(BatchTrace& trace, const double* d_output,
                         double* d_input) {
  double* top = trace.d_output();
  if (d_output != top) {
    std::copy(d_output,
              d_output + static_cast<std::size_t>(trace.rows) *
                             static_cast<std::size_t>(sizes_.back()),
              top);
  }
  backward_rows(trace, 0, trace.rows, d_input);
  accumulate_grads(trace, 0, grad_rows());
}

void Mlp::backward_rows(BatchTrace& trace, int begin, int end,
                        double* d_input) const {
  for (std::size_t li = layers_.size(); li-- > 0;) {
    if (li == 0 && d_input == nullptr) break;
    const Layer& layer = layers_[li];
    const std::size_t in = static_cast<std::size_t>(layer.in);
    const double* delta = trace.deltas[li].data();
    double* below = li == 0 ? d_input : trace.deltas[li - 1].data();
    lane_kernels().deltas(delta, static_cast<std::size_t>(layer.out),
                          params_.data() + layer.w_off, in, below, begin, end);
    if (li == 0) break;
    // Through the activation below, from its cached post-activations (for
    // tanh, d act/d pre = 1 - a^2; for relu, 1[a > 0]), as backward() does.
    const double* x = trace.acts[li].data();
    const std::size_t stop = static_cast<std::size_t>(end) * in;
    for (std::size_t k = static_cast<std::size_t>(begin) * in; k < stop; ++k) {
      const double a = x[k];
      below[k] *=
          act_ == Activation::Tanh ? (1.0 - a * a) : (a > 0.0 ? 1.0 : 0.0);
    }
  }
}

int Mlp::grad_rows() const {
  int n = 0;
  for (const Layer& layer : layers_) n += layer.out;
  return n;
}

int Mlp::grad_row_fan_in(int u) const {
  for (const Layer& layer : layers_) {
    if (u < layer.out) return layer.in;
    u -= layer.out;
  }
  throw std::out_of_range("Mlp::grad_row_fan_in: no such gradient row");
}

void Mlp::accumulate_grads(const BatchTrace& trace, int begin, int end) {
  const int rows = trace.rows;
  int first = 0;  // the layer's first gradient row
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const int lo = std::max(begin - first, 0);
    const int hi = std::min(end - first, layer.out);
    first += layer.out;
    if (lo >= hi) continue;
    lane_kernels().grads(grads_.data() + layer.w_off,
                         grads_.data() + layer.b_off,
                         trace.deltas[li].data(),
                         static_cast<std::size_t>(layer.out),
                         trace.acts[li].data(),
                         static_cast<std::size_t>(layer.in), rows, lo, hi);
  }
}

void Mlp::zero_grad() { std::fill(grads_.begin(), grads_.end(), 0.0); }

void Mlp::save(std::ostream& out) const {
  out << "mlp " << sizes_.size() << "\n";
  for (int s : sizes_) out << s << " ";
  out << "\n" << (act_ == Activation::Tanh ? "tanh" : "relu") << "\n";
  out.precision(17);
  for (double p : params_) out << p << " ";
  out << "\n";
}

Mlp Mlp::load(std::istream& in) {
  std::string magic;
  std::size_t n_sizes = 0;
  in >> magic >> n_sizes;
  if (!in || magic != "mlp" || n_sizes < 2 || n_sizes > kMaxLoadLayers) {
    throw std::runtime_error("Mlp::load: bad header");
  }
  // Bound every width and the total before anything is allocated: a
  // negative or huge count must not reach params_.assign.
  std::vector<int> sizes(n_sizes);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n_sizes; ++i) {
    in >> sizes[i];
    if (!in || sizes[i] < 1 || sizes[i] > kMaxLoadWidth) {
      throw std::runtime_error("Mlp::load: bad layer size");
    }
    if (i > 0) {
      total += (static_cast<std::size_t>(sizes[i - 1]) + 1) *
               static_cast<std::size_t>(sizes[i]);
    }
  }
  if (total > kMaxLoadParams) {
    throw std::runtime_error("Mlp::load: too many parameters");
  }
  std::string act_name;
  in >> act_name;
  Activation act = Activation::Tanh;
  if (act_name == "relu") {
    act = Activation::Relu;
  } else if (act_name != "tanh") {
    throw std::runtime_error("Mlp::load: unknown activation '" + act_name +
                             "'");
  }
  Mlp mlp(sizes, act, 0);
  for (double& p : mlp.params_) in >> p;
  if (!in) throw std::runtime_error("Mlp::load: truncated weights");
  return mlp;
}

Adam::Adam(std::size_t n, double lr, double beta1, double beta2, double eps)
    : lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      m_(n, 0.0),
      v_(n, 0.0) {}

void Adam::step(std::vector<double>& params, const std::vector<double>& grads) {
  begin_step();
  update(params.data(), grads.data(), 0, params.size());
}

void Adam::begin_step() {
  ++t_;
  bc1_ = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  bc2_ = 1.0 - std::pow(beta2_, static_cast<double>(t_));
}

void Adam::update(double* params, const double* grads, std::size_t begin,
                  std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grads[i];
    v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grads[i] * grads[i];
    const double m_hat = m_[i] / bc1_;
    const double v_hat = v_[i] / bc2_;
    params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
  }
}

}  // namespace autockt::nn
