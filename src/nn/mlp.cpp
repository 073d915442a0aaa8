#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

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
// Every batch entry point runs on these. Each kernel carries many
// independent accumulator chains where the per-row reference carries one,
// and each chain still adds its terms in the reference's order:
// - the forward loads each weight once for kRowBlock rows and each input
//   once for kOutBlock outputs (kRowBlock * kOutBlock chains);
// - the delta kernel loads each weight row once for kRowBlock rows and
//   keeps kRowBlock running sums per column over the outputs, on column
//   blocks of 4, then 2, then 1;
// - the gradient kernel keeps one running sum per column of a gradient row
//   while the rows stream past in order, on column blocks of kColBlock,
//   then 2, then 1.
// A short row block repeats its last row in the spare lanes and drops them
// at the store, so every block runs the same code.

namespace {

constexpr int kRowBlock = 4;
constexpr int kOutBlock = 2;
constexpr int kColBlock = 8;

/// Two adjacent columns in one vector register: GCC's and Clang's generic
/// vector type, which compiles for any target (as two scalar lanes where
/// there is no such register). Each lane does the scalar code's multiply
/// and add. As plain loops, GCC vectorizes the delta and gradient kernels
/// across the summed index instead, keeping each sum's order with lane
/// shuffles, and the delta kernel took about 1.5 times as long.
using Pair = double __attribute__((vector_size(2 * sizeof(double))));

Pair load_pair(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_pair(double* p, const Pair& v) { std::memcpy(p, &v, sizeof v); }

/// Rows [r0, r0 + kRowBlock) of a row-major array with `stride` columns,
/// the rows at or past `end` replaced by row end - 1.
template <class T>
void block_rows(T* base, std::size_t stride, int r0, int end,
                T* (&rows)[kRowBlock]) {
  for (int j = 0; j < kRowBlock; ++j) {
    rows[j] = base + static_cast<std::size_t>(std::min(r0 + j, end - 1)) *
                         stride;
  }
}

/// acc[k][j] = b[k] + sum_i w[k * in + i] * xr[j][i], summed in i order:
/// forward()'s pre-activation of output k for row j.
template <int K>
void dot_block(const double* w, const double* b, std::size_t in,
               const double* const (&xr)[kRowBlock],
               double (&acc)[K][kRowBlock]) {
  for (int k = 0; k < K; ++k) {
    for (int j = 0; j < kRowBlock; ++j) acc[k][j] = b[k];
  }
  for (std::size_t i = 0; i < in; ++i) {
    for (int k = 0; k < K; ++k) {
      const double wk = w[static_cast<std::size_t>(k) * in + i];
      for (int j = 0; j < kRowBlock; ++j) acc[k][j] += wk * xr[j][i];
    }
  }
}

/// gw[c] += g[r * g_stride] * x[r * x_stride + c] for c < 2 * P, rows in
/// order: backward()'s weight-gradient update, one row at a time.
template <int P>
void grad_block(double* gw, const double* g, std::size_t g_stride,
                const double* x, std::size_t x_stride, int rows) {
  Pair s[P];
  for (int p = 0; p < P; ++p) s[p] = load_pair(gw + 2 * p);
  for (int r = 0; r < rows; ++r) {
    const double gr = g[static_cast<std::size_t>(r) * g_stride];
    const double* xr = x + static_cast<std::size_t>(r) * x_stride;
    for (int p = 0; p < P; ++p) s[p] += gr * load_pair(xr + 2 * p);
  }
  for (int p = 0; p < P; ++p) store_pair(gw + 2 * p, s[p]);
}

/// grad_block() for the one column gw[0].
void grad_column(double* gw, const double* g, std::size_t g_stride,
                 const double* x, std::size_t x_stride, int rows) {
  double s = gw[0];
  for (int r = 0; r < rows; ++r) {
    s += g[static_cast<std::size_t>(r) * g_stride] *
         x[static_cast<std::size_t>(r) * x_stride];
  }
  gw[0] = s;
}

/// d[j][c0 + c] = sum_o g[j][o] * w[o * in + c0 + c] for j < n and
/// c < 2 * P, from 0.0 in o order: backward()'s dLoss/dInput of row j.
template <int P>
void input_grad_block(const double* const (&g)[kRowBlock], std::size_t out,
                      const double* w, std::size_t in, std::size_t c0,
                      double* const (&d)[kRowBlock], int n) {
  Pair s[kRowBlock][P] = {};
  for (std::size_t o = 0; o < out; ++o) {
    const double* wo = w + o * in + c0;
    Pair wp[P];
    for (int p = 0; p < P; ++p) wp[p] = load_pair(wo + 2 * p);
    for (int j = 0; j < kRowBlock; ++j) {
      const double gj = g[j][o];
      for (int p = 0; p < P; ++p) s[j][p] += gj * wp[p];
    }
  }
  for (int j = 0; j < n; ++j) {
    for (int p = 0; p < P; ++p) store_pair(d[j] + c0 + 2 * p, s[j][p]);
  }
}

/// input_grad_block() for the one column c0.
void input_grad_column(const double* const (&g)[kRowBlock], std::size_t out,
                       const double* w, std::size_t in, std::size_t c0,
                       double* const (&d)[kRowBlock], int n) {
  double s[kRowBlock] = {};
  for (std::size_t o = 0; o < out; ++o) {
    const double wo = w[o * in + c0];
    for (int j = 0; j < kRowBlock; ++j) s[j] += g[j][o] * wo;
  }
  for (int j = 0; j < n; ++j) d[j][c0] = s[j];
}

}  // namespace

void Mlp::layer_forward(const Layer& layer, bool last, const double* x,
                        int rows, double* y) const {
  const std::size_t in = static_cast<std::size_t>(layer.in);
  const std::size_t out = static_cast<std::size_t>(layer.out);
  const double* w = params_.data() + layer.w_off;
  const double* b = params_.data() + layer.b_off;
  for (int r0 = 0; r0 < rows; r0 += kRowBlock) {
    const int n = std::min(kRowBlock, rows - r0);
    const double* xr[kRowBlock];
    block_rows(x, in, r0, rows, xr);
    // The pre-activations first, then the activation over the block: no
    // libm call between the dot products.
    double* yb = y + static_cast<std::size_t>(r0) * out;
    const auto store = [&](std::size_t o, const double (&acc)[kRowBlock]) {
      for (int j = 0; j < n; ++j) {
        yb[static_cast<std::size_t>(j) * out + o] = acc[j];
      }
    };
    std::size_t o = 0;
    for (; o + kOutBlock <= out; o += kOutBlock) {
      double acc[kOutBlock][kRowBlock];
      dot_block<kOutBlock>(w + o * in, b + o, in, xr, acc);
      for (int k = 0; k < kOutBlock; ++k) store(o + k, acc[k]);
    }
    for (; o < out; ++o) {
      double acc[1][kRowBlock];
      dot_block<1>(w + o * in, b + o, in, xr, acc);
      store(o, acc[0]);
    }
    if (last) continue;
    const std::size_t block = static_cast<std::size_t>(n) * out;
    for (std::size_t k = 0; k < block; ++k) yb[k] = activate(yb[k]);
  }
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
    const std::size_t out = static_cast<std::size_t>(layer.out);
    const double* w = params_.data() + layer.w_off;
    const double* delta = trace.deltas[li].data();
    double* below = li == 0 ? d_input : trace.deltas[li - 1].data();
    for (int r0 = begin; r0 < end; r0 += kRowBlock) {
      const int n = std::min(kRowBlock, end - r0);
      const double* g[kRowBlock];
      double* d[kRowBlock];
      block_rows(delta, out, r0, end, g);
      block_rows(below, in, r0, end, d);
      std::size_t c = 0;
      for (; c + 4 <= in; c += 4) input_grad_block<2>(g, out, w, in, c, d, n);
      for (; c + 2 <= in; c += 2) input_grad_block<1>(g, out, w, in, c, d, n);
      if (c < in) input_grad_column(g, out, w, in, c, d, n);
    }
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
    const std::size_t in = static_cast<std::size_t>(layer.in);
    const std::size_t out = static_cast<std::size_t>(layer.out);
    const double* x = trace.acts[li].data();
    const double* delta = trace.deltas[li].data();
    for (int k = lo; k < hi; ++k) {
      const std::size_t o = static_cast<std::size_t>(k);
      double* gw = grads_.data() + layer.w_off + o * in;
      std::size_t c = 0;
      for (; c + kColBlock <= in; c += kColBlock) {
        grad_block<kColBlock / 2>(gw + c, delta + o, out, x + c, in, rows);
      }
      for (; c + 2 <= in; c += 2) {
        grad_block<1>(gw + c, delta + o, out, x + c, in, rows);
      }
      if (c < in) grad_column(gw + c, delta + o, out, x + c, in, rows);
      double& gb = grads_[layer.b_off + o];
      for (int r = 0; r < rows; ++r) {
        gb += delta[static_cast<std::size_t>(r) * out + o];
      }
    }
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
