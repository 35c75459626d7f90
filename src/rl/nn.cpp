#include "rl/nn.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/check.hpp"
#include "common/kernels.hpp"

namespace ctj::rl {

LinearLayer::LinearLayer(std::size_t in, std::size_t out, Rng& rng)
    : w_(Matrix::he_normal(in, out, rng)),
      b_(1, out, 0.0),
      gw_(in, out, 0.0),
      gb_(1, out, 0.0) {}

void LinearLayer::forward_into(const Matrix& x, Matrix& y, bool relu) const {
  matmul_into(y, x, w_);
  kern::ops().bias_act(y.data(), b_.data(), y.rows(), y.cols(), relu);
}

void LinearLayer::backward_params_acc(const Matrix& input,
                                      const Matrix& grad_out) {
  CTJ_CHECK(input.rows() == grad_out.rows());
  matmul_at_b_acc(gw_, input, grad_out);
  const std::size_t n = grad_out.cols();
  double* gbias = gb_.data();
  for (std::size_t r = 0; r < grad_out.rows(); ++r) {
    const double* g = grad_out.data() + r * n;
    for (std::size_t j = 0; j < n; ++j) gbias[j] += g[j];
  }
}

void LinearLayer::grad_input_into(const Matrix& grad_out, Matrix& grad_in) {
  matmul_a_bt_into(grad_in, grad_out, w_, wt_scratch_);
}

void LinearLayer::forward_gather(const Matrix& x,
                                 std::span<const std::size_t> cols,
                                 std::span<double> y) const {
  CTJ_CHECK(x.cols() == w_.rows() && cols.size() == x.rows() &&
            y.size() == x.rows());
  for (const std::size_t c : cols) CTJ_CHECK(c < w_.cols());
  kern::ops().gather_dot(y.data(), x.data(), w_.data(), cols.data(),
                         x.rows(), w_.rows(), w_.cols());
  // The one add bias_act's bias pass makes on that entry.
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += b_.data()[cols[i]];
}

void LinearLayer::backward_gather(const Matrix& input,
                                  std::span<const std::size_t> cols,
                                  std::span<const double> g, Matrix& grad_in) {
  const std::size_t in = w_.rows(), out = w_.cols();
  CTJ_CHECK(input.cols() == in && input.rows() == g.size() &&
            cols.size() == g.size());
  grad_in.resize(g.size(), in);
  const double* w = w_.data();
  double* gw = gw_.data();
  for (std::size_t r = 0; r < g.size(); ++r) {
    const double gr = g[r];
    // Skipping a ±0.0 row is exact: the gradients it would add to never hold
    // -0.0 (see matmul_at_b_acc), and its input-gradient row stays +0.0.
    if (gr == 0.0) continue;
    const std::size_t c = cols[r];
    CTJ_CHECK(c < out);
    const double* h = input.data() + r * in;
    double* gin = grad_in.data() + r * in;
    for (std::size_t k = 0; k < in; ++k) {
      // matmul_at_b_acc's sparse-row update, written the same way so this TU
      // contracts it the same way. It has no `h[k] != 0.0` test: h and gr
      // are finite and no gradient entry holds -0.0, so a zero h adds ±0.0,
      // and fma(±0, gr, gw) and gw + ±0 both give gw back.
      gw[k * out + c] += h[k] * gr;
      gin[k] = 0.0 + gr * w[k * out + c];
    }
    gb_.data()[c] += gr;
  }
}

void LinearLayer::zero_grad() {
  gw_.fill(0.0);
  gb_.fill(0.0);
}

Mlp::Mlp(std::vector<std::size_t> sizes, Rng& rng) : sizes_(std::move(sizes)) {
  CTJ_CHECK_MSG(sizes_.size() >= 2, "an MLP needs at least input and output");
  layers_.reserve(sizes_.size() - 1);
  for (std::size_t i = 0; i + 1 < sizes_.size(); ++i) {
    layers_.emplace_back(sizes_[i], sizes_[i + 1], rng);
  }
}

const Matrix& Mlp::forward_hidden(const Matrix& x) {
  acts_.resize(layers_.size() + 1);
  acts_[0] = x;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i) {
    // ReLU fused into the bias kernel; backward_from() reads the unit's
    // activity back from the output (h > 0 post-ReLU iff pre-ReLU).
    layers_[i].forward_into(acts_[i], acts_[i + 1], /*relu=*/true);
  }
  return acts_[layers_.size() - 1];
}

const Matrix& Mlp::forward_cached(const Matrix& x) {
  const Matrix& top_in = forward_hidden(x);  // resizes acts_: call it first
  layers_.back().forward_into(top_in, acts_.back(), /*relu=*/false);
  return acts_.back();
}

void Mlp::forward_taken(const Matrix& x, std::span<const std::size_t> cols,
                        std::span<double> out) {
  layers_.back().forward_gather(forward_hidden(x), cols, out);
}

Matrix Mlp::forward_const(const Matrix& x) const {
  Matrix h = x;
  Matrix next;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].forward_into(h, next, i + 1 < layers_.size());
    std::swap(h, next);
  }
  return h;
}

void Mlp::forward_scratch(const Matrix& x, Matrix& out, Matrix& scratch_a,
                          Matrix& scratch_b) const {
  const Matrix* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    Matrix& dst = last ? out : (i % 2 == 0 ? scratch_a : scratch_b);
    layers_[i].forward_into(*cur, dst, !last);
    cur = &dst;
  }
}

void Mlp::check_backward_rows(std::size_t rows) const {
  CTJ_CHECK_MSG(acts_.size() == layers_.size() + 1 && acts_[0].rows() == rows,
                "backward() without a matching forward()");
}

void Mlp::backward(const Matrix& grad_out) {
  check_backward_rows(grad_out.rows());
  grad_a_ = grad_out;
  backward_from(layers_.size() - 1);
}

void Mlp::backward_taken(std::span<const std::size_t> cols,
                         std::span<const double> g) {
  check_backward_rows(g.size());
  const std::size_t top = layers_.size() - 1;
  layers_[top].backward_gather(acts_[top], cols, g, grad_a_);
  if (top > 0) backward_from(top - 1);
}

void Mlp::backward_from(std::size_t i) {
  Matrix* g = &grad_a_;
  Matrix* next = &grad_b_;
  for (;; --i) {
    if (i + 1 < layers_.size()) {
      // ReLU backward: an inactive unit passes +0.0. That gives the same
      // gradient bits as g·0 (-0.0 for a negative g): every consumer skips
      // ±0.0 alike, and the bias sum stays +0.0 either way.
      const Matrix& h = acts_[i + 1];
      CTJ_CHECK(h.rows() == g->rows() && h.cols() == g->cols());
      for (std::size_t k = 0; k < g->size(); ++k) {
        g->data()[k] = h.data()[k] > 0.0 ? g->data()[k] : 0.0;
      }
    }
    layers_[i].backward_params_acc(acts_[i], *g);
    if (i == 0) return;
    layers_[i].grad_input_into(*g, *next);
    std::swap(g, next);
  }
}

void Mlp::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

std::size_t Mlp::param_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.param_count();
  return n;
}

LinearLayer& Mlp::layer(std::size_t i) {
  CTJ_CHECK(i < layers_.size());
  return layers_[i];
}

const LinearLayer& Mlp::layer(std::size_t i) const {
  CTJ_CHECK(i < layers_.size());
  return layers_[i];
}

void Mlp::copy_parameters_from(const Mlp& other) {
  CTJ_CHECK_MSG(sizes_ == other.sizes_, "cannot sync differently-shaped MLPs");
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].weights() = other.layers_[i].weights();
    layers_[i].bias() = other.layers_[i].bias();
  }
}

void Mlp::lerp_parameters_from(const Mlp& other, double tau) {
  CTJ_CHECK_MSG(sizes_ == other.sizes_, "cannot sync differently-shaped MLPs");
  CTJ_CHECK_MSG(tau >= 0.0 && tau <= 1.0, "tau must lie in [0, 1]");
  if (tau == 1.0) {
    // d + 1·(s − d) is not bitwise s under rounding; keep the documented
    // equivalence with copy_parameters_from() exact.
    copy_parameters_from(other);
    return;
  }
  const auto lerp = [tau](Matrix& dst, const Matrix& src) {
    double* d = dst.data();
    const double* s = src.data();
    for (std::size_t i = 0; i < dst.size(); ++i) d[i] += tau * (s[i] - d[i]);
  };
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    lerp(layers_[i].weights(), other.layers_[i].weights());
    lerp(layers_[i].bias(), other.layers_[i].bias());
  }
}

void Mlp::copy_flat_to(std::span<double> out) const {
  CTJ_CHECK_MSG(out.size() == param_count(),
                "flat buffer holds " << out.size() << " doubles, network has "
                                     << param_count());
  double* dst = out.data();
  for (const auto& layer : layers_) {
    const Matrix& w = layer.weights();
    const Matrix& b = layer.bias();
    dst = std::copy(w.data(), w.data() + w.size(), dst);
    dst = std::copy(b.data(), b.data() + b.size(), dst);
  }
}

namespace {

std::string shape_string(std::uint64_t rows, std::uint64_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

void check_tensor_list(const std::vector<io::NamedTensor>& tensors,
                       const std::vector<io::NamedTensor>& expected,
                       const char* what) {
  if (tensors.size() != expected.size()) {
    throw io::IoError(io::ErrorKind::kStateMismatch,
                      std::string(what) + " has " +
                          std::to_string(tensors.size()) + " tensors, expected " +
                          std::to_string(expected.size()));
  }
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    if (tensors[i].name != expected[i].name) {
      throw io::IoError(io::ErrorKind::kStateMismatch,
                        std::string(what) + " tensor " + std::to_string(i) +
                            " is \"" + tensors[i].name + "\", expected \"" +
                            expected[i].name + "\"");
    }
    if (tensors[i].rows != expected[i].rows ||
        tensors[i].cols != expected[i].cols) {
      throw io::IoError(io::ErrorKind::kStateMismatch,
                        std::string(what) + " tensor " + tensors[i].name +
                            " is " +
                            shape_string(tensors[i].rows, tensors[i].cols) +
                            ", expected " +
                            shape_string(expected[i].rows, expected[i].cols));
    }
  }
}

io::NamedTensor tensor_shape_of(std::string name, const Matrix& m) {
  io::NamedTensor t;
  t.name = std::move(name);
  t.rows = m.rows();
  t.cols = m.cols();
  return t;
}

}  // namespace

std::vector<io::NamedTensor> Mlp::export_state() const {
  std::vector<io::NamedTensor> tensors;
  tensors.reserve(2 * layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::string prefix = "layer" + std::to_string(i);
    io::NamedTensor w = tensor_shape_of(prefix + ".w", layers_[i].weights());
    w.data.assign(layers_[i].weights().data(),
                  layers_[i].weights().data() + layers_[i].weights().size());
    tensors.push_back(std::move(w));
    io::NamedTensor b = tensor_shape_of(prefix + ".b", layers_[i].bias());
    b.data.assign(layers_[i].bias().data(),
                  layers_[i].bias().data() + layers_[i].bias().size());
    tensors.push_back(std::move(b));
  }
  return tensors;
}

void Mlp::check_tensors(const std::vector<io::NamedTensor>& tensors) const {
  std::vector<io::NamedTensor> expected;
  expected.reserve(2 * layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::string prefix = "layer" + std::to_string(i);
    expected.push_back(tensor_shape_of(prefix + ".w", layers_[i].weights()));
    expected.push_back(tensor_shape_of(prefix + ".b", layers_[i].bias()));
  }
  check_tensor_list(tensors, expected, "network");
}

void Mlp::apply_tensors(const std::vector<io::NamedTensor>& tensors) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const io::NamedTensor& w = tensors[2 * i];
    const io::NamedTensor& b = tensors[2 * i + 1];
    std::copy(w.data.begin(), w.data.end(), layers_[i].weights().data());
    std::copy(b.data.begin(), b.data.end(), layers_[i].bias().data());
  }
}

void Mlp::save_state(io::ByteWriter& out) const {
  io::write_tensors(out, export_state());
}

AdamOptimizer::AdamOptimizer(const Mlp& net, Config config) : config_(config) {
  CTJ_CHECK(config.lr > 0.0);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const auto& layer = net.layer(i);
    m_.push_back(Matrix::zeros(layer.weights().rows(), layer.weights().cols()));
    m_.push_back(Matrix::zeros(1, layer.bias().cols()));
    v_.push_back(Matrix::zeros(layer.weights().rows(), layer.weights().cols()));
    v_.push_back(Matrix::zeros(1, layer.bias().cols()));
  }
}

void AdamOptimizer::step(Mlp& net) {
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(config_.beta2, static_cast<double>(t_));
  const auto adam_update = kern::ops().adam_update;
  std::size_t slot = 0;
  auto update = [&](Matrix& param, Matrix& grad) {
    adam_update(param.data(), m_[slot].data(), v_[slot].data(), grad.data(),
                param.size(), config_.beta1, config_.beta2, config_.lr, bc1,
                bc2, config_.epsilon);
    ++slot;
  };
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    update(net.layer(i).weights(), net.layer(i).weight_grad());
    update(net.layer(i).bias(), net.layer(i).bias_grad());
  }
}

void AdamOptimizer::save_state(io::ByteWriter& out) const {
  out.u64(t_);
  std::vector<io::NamedTensor> tensors;
  tensors.reserve(2 * m_.size());
  for (std::size_t slot = 0; slot < m_.size(); ++slot) {
    const std::string prefix = "p" + std::to_string(slot);
    io::NamedTensor m = tensor_shape_of(prefix + ".m", m_[slot]);
    m.data.assign(m_[slot].data(), m_[slot].data() + m_[slot].size());
    tensors.push_back(std::move(m));
    io::NamedTensor v = tensor_shape_of(prefix + ".v", v_[slot]);
    v.data.assign(v_[slot].data(), v_[slot].data() + v_[slot].size());
    tensors.push_back(std::move(v));
  }
  io::write_tensors(out, tensors);
}

AdamOptimizer::State AdamOptimizer::decode_state(io::ByteReader& in) {
  State state;
  state.step_count = in.u64();
  state.moments = io::read_tensors(in);
  return state;
}

void AdamOptimizer::check_state(const State& state) const {
  std::vector<io::NamedTensor> expected;
  expected.reserve(2 * m_.size());
  for (std::size_t slot = 0; slot < m_.size(); ++slot) {
    const std::string prefix = "p" + std::to_string(slot);
    expected.push_back(tensor_shape_of(prefix + ".m", m_[slot]));
    expected.push_back(tensor_shape_of(prefix + ".v", v_[slot]));
  }
  check_tensor_list(state.moments, expected, "optimizer");
}

void AdamOptimizer::apply_state(const State& state) {
  t_ = static_cast<std::size_t>(state.step_count);
  for (std::size_t slot = 0; slot < m_.size(); ++slot) {
    const io::NamedTensor& m = state.moments[2 * slot];
    const io::NamedTensor& v = state.moments[2 * slot + 1];
    std::copy(m.data.begin(), m.data.end(), m_[slot].data());
    std::copy(v.data.begin(), v.data.end(), v_[slot].data());
  }
}

void sgd_step(Mlp& net, double lr) {
  CTJ_CHECK(lr > 0.0);
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    auto& layer = net.layer(i);
    for (std::size_t k = 0; k < layer.weights().size(); ++k) {
      layer.weights().data()[k] -= lr * layer.weight_grad().data()[k];
    }
    for (std::size_t k = 0; k < layer.bias().size(); ++k) {
      layer.bias().data()[k] -= lr * layer.bias_grad().data()[k];
    }
  }
}

double huber_grad(double error, double delta) {
  CTJ_CHECK(delta > 0.0);
  if (error > delta) return delta;
  if (error < -delta) return -delta;
  return error;
}

double huber_loss(double error, double delta) {
  CTJ_CHECK(delta > 0.0);
  const double abs_error = std::abs(error);
  if (abs_error <= delta) return 0.5 * error * error;
  return delta * (abs_error - 0.5 * delta);
}

}  // namespace ctj::rl
