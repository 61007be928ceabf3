#ifndef VFLFIA_NN_MODULE_H_
#define VFLFIA_NN_MODULE_H_

#include <memory>
#include <vector>

#include "la/matrix.h"

namespace vfl::nn {

/// A trainable tensor: value plus accumulated gradient of the loss w.r.t. it.
struct Parameter {
  la::Matrix value;
  la::Matrix grad;

  explicit Parameter(la::Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Fill(0.0); }
};

/// Base class of every network layer. Layers cache whatever they need in
/// Forward() and consume it in the next Backward() call; the training loop
/// therefore always pairs one Forward with at most one Backward per layer.
///
/// Backward() receives dLoss/dOutput, accumulates dLoss/dParams into each
/// Parameter::grad, and returns dLoss/dInput. Returning the input gradient
/// is what lets the GRNA attack back-propagate through a *frozen* VFL model
/// into its generator: frozen just means the model's parameters are never
/// stepped (Sec. V-A of the paper). Training loops that never read dL/dInput
/// call BackwardParams() instead, which may skip computing it; frozen models
/// call BackwardInput(), which computes only dL/dInput and leaves every
/// Parameter::grad untouched.
///
/// Buffers: each layer owns its forward-output and input-gradient matrices
/// and refills them in place (resized, capacity kept), so a steady-state
/// training step allocates nothing. Forward() and Backward() return
/// references to those buffers; a reference stays valid only until the same
/// module's next Forward() or Backward() call. A caller that keeps a result
/// across such a call must copy it. The argument must not be a buffer
/// returned by the same module.
class Module;
using ModulePtr = std::unique_ptr<Module>;

class Module {
 public:
  virtual ~Module() = default;

  /// Maps a batch (rows = samples) to the layer output; caches state for
  /// Backward. The result is this module's buffer: valid until its next
  /// Forward() or Backward().
  virtual const la::Matrix& Forward(const la::Matrix& input) = 0;

  /// Forward pass that touches no mutable layer state: no caches, inference
  /// behaviour for mode-dependent layers (dropout = identity). Safe to call
  /// concurrently from many threads on one layer object — the serving path's
  /// contract (PredictionServer workers share one model).
  virtual la::Matrix InferenceForward(const la::Matrix& input) const = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. The result is this module's buffer: valid until its next
  /// Forward() or Backward().
  virtual const la::Matrix& Backward(const la::Matrix& grad_output) = 0;

  /// Accumulates the same parameter gradients as Backward() but may skip
  /// dLoss/dInput, for callers that never read it (the first layer of a
  /// trained network). Defaults to Backward().
  virtual void BackwardParams(const la::Matrix& grad_output) {
    Backward(grad_output);
  }

  /// Returns the same dLoss/dInput as Backward(), bit for bit, without
  /// touching any Parameter::grad: the backward pass of a frozen model.
  /// Layers with parameters must override it; the default (Backward()) is
  /// only right for parameter-free layers. Same buffer contract as
  /// Backward().
  virtual const la::Matrix& BackwardInput(const la::Matrix& grad_output) {
    return Backward(grad_output);
  }

  /// Deep copy of the layer: parameters and configuration; transient
  /// forward/backward caches may be copied or reset. Lets each worker
  /// thread snapshot a network instead of racing on shared caches.
  virtual ModulePtr Clone() const = 0;

  /// Trainable parameters (empty for stateless layers).
  virtual std::vector<Parameter*> Parameters() { return {}; }

  /// Toggles training-time behaviour (dropout). Default: no-op.
  virtual void SetTraining(bool /*training*/) {}

  /// Zeroes all parameter gradients.
  void ZeroGrad() {
    for (Parameter* p : Parameters()) p->ZeroGrad();
  }
};

}  // namespace vfl::nn

#endif  // VFLFIA_NN_MODULE_H_
