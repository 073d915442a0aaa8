#include "nn/mlp.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/rng.hpp"

namespace autockt::nn {

Mlp::Mlp(std::vector<int> layer_sizes, Activation act, std::uint64_t seed,
         double final_scale)
    : sizes_(std::move(layer_sizes)), act_(act) {
  if (sizes_.size() < 2) {
    throw std::invalid_argument("Mlp needs at least input and output sizes");
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

double Mlp::activate_grad(double pre) const {
  if (act_ == Activation::Tanh) {
    const double t = std::tanh(pre);
    return 1.0 - t * t;
  }
  return pre > 0.0 ? 1.0 : 0.0;
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
  std::vector<double> cur = x;
  std::vector<double> next;
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& layer = layers_[li];
    const std::size_t in = static_cast<std::size_t>(layer.in);
    const std::size_t out = static_cast<std::size_t>(layer.out);
    next.resize(n * out);  // every element is written below
    const bool last = li + 1 == layers_.size();
    // GEMM loop order (o, r, i): the o-th weight row streams once from
    // params_ and is reused across all batch rows; the inner i-loop keeps
    // the exact accumulation order of the single-row forward().
    for (std::size_t o = 0; o < out; ++o) {
      const double* w = params_.data() + layer.w_off + o * in;
      const double b = params_[layer.b_off + o];
      for (std::size_t r = 0; r < n; ++r) {
        const double* xr = cur.data() + r * in;
        double acc = b;
        for (std::size_t i = 0; i < in; ++i) acc += w[i] * xr[i];
        next[r * out + o] = last ? acc : activate(acc);
      }
    }
    cur.swap(next);
  }
  return cur;
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
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * grads[i];
    v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * grads[i] * grads[i];
    const double m_hat = m_[i] / bc1;
    const double v_hat = v_[i] / bc2;
    params[i] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
  }
}

}  // namespace autockt::nn
