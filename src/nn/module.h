#ifndef VFLFIA_NN_MODULE_H_
#define VFLFIA_NN_MODULE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "la/matrix.h"

namespace vfl::nn {

/// A trainable tensor: value plus accumulated gradient of the loss w.r.t. it.
///
/// `version` changes whenever `value` may have: whatever writes `value`
/// (Adam::BeginStep, a weight load, a gradient check) calls BumpVersion, so
/// a layer can keep something derived from the value, such as Linear's
/// stored W^T, for as long as the version it was derived at holds.
struct Parameter {
  la::Matrix value;
  la::Matrix grad;
  std::uint64_t version = 0;

  explicit Parameter(la::Matrix v)
      : value(std::move(v)), grad(value.rows(), value.cols()) {}

  void ZeroGrad() { grad.Fill(0.0); }
  void BumpVersion() { ++version; }
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
/// Row ranges: every pass is implemented once, over a range of rows. A
/// Begin* call does the serial part (sizes the layer's buffers for the
/// batch, draws the batch's dropout mask), then *Rows calls fill disjoint
/// ranges, possibly on different threads at once: forward output and input
/// gradient by batch rows, parameter gradients by parameter rows (the rows
/// of Parameters(), concatenated in order). Every output element is a
/// function of its own rows alone, so any partition gives the bits of one
/// whole-batch call. The whole-batch Forward, Backward, BackwardParams and
/// BackwardInput are one-range wrappers.
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

  /// Sizes the forward buffers for `input`'s batch and draws any per-batch
  /// randomness. Returns the output buffer, whose rows ForwardRows fills.
  virtual const la::Matrix& BeginForward(const la::Matrix& input) = 0;

  /// Output rows [r0, r1) of the batch BeginForward prepared, caching what
  /// the backward pass of those rows needs. `input` is the same matrix.
  virtual void ForwardRows(const la::Matrix& input, std::size_t r0,
                           std::size_t r1) = 0;

  /// Sizes the input-gradient buffer for `grad_output`'s batch (the last
  /// forward batch). Returns it; BackwardRows fills its rows.
  virtual const la::Matrix& BeginBackward(const la::Matrix& grad_output) = 0;

  /// dLoss/dInput rows [r0, r1) from the same rows of `grad_output`. Touches
  /// no Parameter::grad.
  virtual void BackwardRows(const la::Matrix& grad_output, std::size_t r0,
                            std::size_t r1) = 0;

  /// Rows of Parameters(), concatenated in order.
  virtual std::size_t NumParamRows() const { return 0; }

  /// Adds the batch's gradient to parameter rows [p0, p1) (indices into
  /// NumParamRows()), each element summed over the batch rows in ascending
  /// order.
  virtual void ParamGradRows(const la::Matrix& /*grad_output*/,
                             std::size_t /*p0*/, std::size_t /*p1*/) {}

  /// Maps a batch (rows = samples) to the layer output; caches state for
  /// Backward. The result is this module's buffer: valid until its next
  /// Forward() or Backward().
  const la::Matrix& Forward(const la::Matrix& input) {
    const la::Matrix& output = BeginForward(input);
    ForwardRows(input, 0, input.rows());
    return output;
  }

  /// Forward pass that touches no mutable layer state: no caches, inference
  /// behaviour for mode-dependent layers (dropout = identity). Safe to call
  /// concurrently from many threads on one layer object — the serving path's
  /// contract (PredictionServer workers share one model).
  virtual la::Matrix InferenceForward(const la::Matrix& input) const = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. The result is this module's buffer: valid until its next
  /// Forward() or Backward().
  virtual const la::Matrix& Backward(const la::Matrix& grad_output) {
    BackwardParams(grad_output);
    return BackwardInput(grad_output);
  }

  /// Accumulates the same parameter gradients as Backward() but may skip
  /// dLoss/dInput, for callers that never read it (the first layer of a
  /// trained network).
  virtual void BackwardParams(const la::Matrix& grad_output) {
    ParamGradRows(grad_output, 0, NumParamRows());
  }

  /// Returns the same dLoss/dInput as Backward(), bit for bit, without
  /// touching any Parameter::grad: the backward pass of a frozen model. Same
  /// buffer contract as Backward().
  const la::Matrix& BackwardInput(const la::Matrix& grad_output) {
    const la::Matrix& grad_input = BeginBackward(grad_output);
    BackwardRows(grad_output, 0, grad_output.rows());
    return grad_input;
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
