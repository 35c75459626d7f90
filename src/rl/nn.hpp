// A fully-connected feed-forward network with manual backpropagation, plus
// SGD and Adam optimizers.
//
// Architecture per the paper's Fig. 4: input layer (3·I neurons), two hidden
// ReLU layers, linear output layer (C·PL neurons). The implementation is
// generic in the layer sizes so ablations can vary width and depth.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "io/tensors.hpp"
#include "rl/matrix.hpp"

namespace ctj::rl {

/// One affine layer y = x·W + b. The layer caches nothing: the Mlp keeps
/// the activations its backward pass needs.
class LinearLayer {
 public:
  LinearLayer(std::size_t in, std::size_t out, Rng& rng);

  /// Allocation-free forward: y = x·W + b, reusing y's buffer. With `relu`
  /// set the activation is fused into the bias kernel (single pass over y).
  void forward_into(const Matrix& x, Matrix& y, bool relu) const;

  /// Backward, in two halves: accumulate the parameter gradients (summed
  /// over the batch) from the layer input actually seen in forward…
  void backward_params_acc(const Matrix& input, const Matrix& grad_out);
  /// …and propagate the input gradient without touching parameters.
  /// Non-const: keeps a Wᵀ scratch so the product runs through the
  /// vectorized kernel without allocating.
  void grad_input_into(const Matrix& grad_out, Matrix& grad_in);

  /// y[i] = forward_into(x)[i, cols[i]] bit for bit, computing only that
  /// column of each row.
  void forward_gather(const Matrix& x, std::span<const std::size_t> cols,
                      std::span<double> y) const;

  /// backward_params_acc() + grad_input_into() for an output gradient whose
  /// row i is g[i] at column cols[i] and zero elsewhere, bit for bit, without
  /// reading the zeros: the input gradient comes straight from W's column.
  void backward_gather(const Matrix& input, std::span<const std::size_t> cols,
                       std::span<const double> g, Matrix& grad_in);

  void zero_grad();

  Matrix& weights() { return w_; }
  Matrix& bias() { return b_; }
  const Matrix& weights() const { return w_; }
  const Matrix& bias() const { return b_; }
  Matrix& weight_grad() { return gw_; }
  Matrix& bias_grad() { return gb_; }
  const Matrix& weight_grad() const { return gw_; }
  const Matrix& bias_grad() const { return gb_; }

  std::size_t param_count() const { return w_.size() + b_.size(); }

 private:
  Matrix w_;   // [in × out]
  Matrix b_;   // [1 × out]
  Matrix gw_;
  Matrix gb_;
  Matrix wt_scratch_;  // Wᵀ buffer for grad_input_into()
};

/// Multi-layer perceptron with ReLU activations between affine layers.
class Mlp {
 public:
  /// sizes = {in, h1, …, out}; at least one layer (sizes.size() >= 2).
  Mlp(std::vector<std::size_t> sizes, Rng& rng);

  /// Allocating inference forward on a const network (the reference the
  /// buffer-reusing paths are tested against).
  Matrix forward_const(const Matrix& x) const;

  /// Training forward pass reusing internal activation buffers; caches the
  /// activations backward() needs. The returned reference is valid until
  /// the next forward on this network. The DQN learner uses forward_taken();
  /// this dense path is the reference it is tested against.
  const Matrix& forward_cached(const Matrix& x);

  /// Training forward for a loss that reads one output per row: writes
  /// out[i] = forward_cached(x)[i, cols[i]] bit for bit, computing the
  /// output layer at those columns only. Caches what backward_taken()
  /// needs.
  void forward_taken(const Matrix& x, std::span<const std::size_t> cols,
                     std::span<double> out);

  /// Inference forward with caller-owned ping-pong scratch buffers, so a
  /// const network can run allocation-free (each caller brings its own
  /// scratch; concurrent calls must not share buffers).
  void forward_scratch(const Matrix& x, Matrix& out, Matrix& scratch_a,
                       Matrix& scratch_b) const;

  /// Backprop from the output gradient; fills all layer gradients. Requires
  /// a preceding forward_cached() on this network.
  void backward(const Matrix& grad_out);

  /// backward() for the output gradient that is g[i] at column cols[i] of
  /// row i and zero elsewhere, bit for bit. Requires a preceding
  /// forward_taken() (or forward_cached()) on this network.
  void backward_taken(std::span<const std::size_t> cols,
                      std::span<const double> g);

  void zero_grad();
  std::size_t param_count() const;
  std::size_t num_layers() const { return layers_.size(); }
  LinearLayer& layer(std::size_t i);
  const LinearLayer& layer(std::size_t i) const;
  const std::vector<std::size_t>& sizes() const { return sizes_; }

  /// Copy all parameters from another identically-shaped network
  /// (target-network sync).
  void copy_parameters_from(const Mlp& other);

  /// Polyak soft update: move every parameter a fraction tau of the way
  /// toward `other` (target ← (1−τ)·target + τ·online). tau = 1 is
  /// copy_parameters_from(); tau = 0 is a no-op.
  void lerp_parameters_from(const Mlp& other, double tau);

  /// Flatten all parameters into a caller-sized buffer of param_count()
  /// doubles (layer order, weights then bias per layer), so two networks
  /// can be compared parameter by parameter.
  void copy_flat_to(std::span<double> out) const;

  // Checkpoint-format serialization (io::NamedTensor blobs, tensors named
  // "layer<i>.w" / "layer<i>.b"). The three-step export/check/apply split
  // lets a composite loader (DqnAgent) validate every component before
  // mutating any of them.
  std::vector<io::NamedTensor> export_state() const;
  /// Throws io::IoError (kStateMismatch) unless the tensor list matches
  /// this network's layer count, names and shapes exactly.
  void check_tensors(const std::vector<io::NamedTensor>& tensors) const;
  /// Copy checked tensors into the parameters (no allocation, no throwing
  /// after check_tensors passed).
  void apply_tensors(const std::vector<io::NamedTensor>& tensors);
  void save_state(io::ByteWriter& out) const;

 private:
  /// Forward through every layer but the last, caching the activations;
  /// returns the last layer's input.
  const Matrix& forward_hidden(const Matrix& x);
  void check_backward_rows(std::size_t rows) const;
  /// Backprop from grad_a_, the gradient at layer i's output (ahead of its
  /// ReLU), down through layer 0.
  void backward_from(std::size_t i);

  std::vector<std::size_t> sizes_;
  std::vector<LinearLayer> layers_;
  std::vector<Matrix> acts_;  // acts_[i]: input of layer i; back is output
  Matrix grad_a_, grad_b_;    // ping-pong buffers for backward()
};

/// Adam optimizer over an Mlp's parameters.
class AdamOptimizer {
 public:
  struct Config {
    double lr = 1e-3;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;
  };

  AdamOptimizer(const Mlp& net, Config config);

  /// Apply one update using the gradients currently stored in the network,
  /// and consume them: every gradient is +0.0 afterwards, so the next
  /// backward accumulates from zero without a zero_grad() call.
  void step(Mlp& net);

  const Config& config() const { return config_; }
  std::size_t step_count() const { return t_; }

  // Checkpoint-format serialization: the step counter plus every moment
  // matrix ("p<slot>.m" / "p<slot>.v"), same decode/check/apply protocol
  // as Mlp so resumed Adam updates are bit-identical.
  struct State {
    std::uint64_t step_count = 0;
    std::vector<io::NamedTensor> moments;
  };
  void save_state(io::ByteWriter& out) const;
  static State decode_state(io::ByteReader& in);
  /// Throws io::IoError (kStateMismatch) unless the moments match this
  /// optimizer's parameter slots in count, names and shapes.
  void check_state(const State& state) const;
  void apply_state(const State& state);

 private:
  Config config_;
  std::vector<Matrix> m_;  // first moments, one per parameter matrix
  std::vector<Matrix> v_;  // second moments
  std::size_t t_ = 0;
};

/// Plain SGD (used by tests as a cross-check of the gradient computation).
void sgd_step(Mlp& net, double lr);

/// Huber loss derivative for a scalar error (delta = 1).
double huber_grad(double error, double delta = 1.0);

/// Huber loss itself: ½e² in the quadratic zone, δ(|e| − ½δ) beyond — the
/// objective whose derivative huber_grad() clips.
double huber_loss(double error, double delta = 1.0);

}  // namespace ctj::rl
