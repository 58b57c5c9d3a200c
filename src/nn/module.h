// Module-graph neural network library with exact analytical backward passes.
//
// Every Module owns its parameters (value + gradient) and caches whatever it
// needs from the last forward() so that the matching backward() can compute
// gradients without an autograd tape. A training step is:
//
//   auto y = net.forward(x);
//   ... compute dL/dy analytically (the RL losses have closed forms) ...
//   net.backward(dLdy);           // accumulates into Parameter::grad
//   optimizer.step(net.parameters());
//   net.zero_grad();
//
// backward(g) must be called at most once per forward() and returns dL/dx.
//
// Forwards that no backward will read (rollout policy steps, bootstrap
// values, the distillation teacher, the Eq. 7 runner-up candidates, eval)
// call infer(x) instead: the bit-identical output of forward(x), with no
// backward cache built. infer draws every RNG sample forward would (a
// MixedOp still samples its Gumbel choice). It leaves the cache of an
// earlier forward() alone, except where it re-draws what that forward
// sampled: a MixedOp drops its cache, so a backward() after an infer()
// throws instead of mixing two samples. Leaves share one code path between
// the two (forward = cache, then the infer arithmetic); composites wire
// infer through their children.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace a3cs::nn {

using tensor::Shape;
using tensor::Tensor;

// A learnable tensor plus its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  Parameter() = default;
  Parameter(std::string n, Shape shape)
      : name(std::move(n)), value(shape), grad(shape) {}

  std::int64_t numel() const { return value.numel(); }
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Computes the output for `x` and caches activations for backward().
  virtual Tensor forward(const Tensor& x) = 0;

  // forward(x) without the backward cache (see the file comment). `x` is
  // taken by value so elementwise modules can work in place. The default
  // builds the cache anyway; every module in the library overrides it.
  virtual Tensor infer(Tensor x) { return forward(x); }

  // Given dL/d(output of last forward), accumulates parameter gradients and
  // returns dL/d(input of last forward).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Appends pointers to all owned parameters (depth-first, stable order).
  virtual void collect_parameters(std::vector<Parameter*>& out) = 0;

  virtual std::string name() const = 0;

  std::vector<Parameter*> parameters();
  void zero_grad();
  std::int64_t num_parameters();
};

// Copies parameter values from `src` to `dst` (shapes and count must match;
// matching is positional, which is stable for identically-built networks).
void copy_parameters(Module& src, Module& dst);

// Global L2 norm plus finiteness of a parameter set, computed in ONE fused
// pass over the raw buffers: a single NaN/Inf element makes the squared-sum
// accumulator non-finite (double cannot overflow on float squares at any
// realistic element count), so `finite` falls out of the same loop that
// computes the norm — no separate per-element isfinite sweep.
struct NormStats {
  double norm = 0.0;    // sqrt(sum of squares); NaN/Inf when !finite
  bool finite = true;   // every element finite
};
NormStats grad_norm_stats(const std::vector<Parameter*>& params);
NormStats param_norm_stats(const std::vector<Parameter*>& params);

// Zeroes every gradient buffer (the "skip-and-zero" primitive of the
// training-health guard).
void zero_gradients(const std::vector<Parameter*>& params);

// Global L2-norm gradient clipping; returns the pre-clip norm. A non-finite
// pre-clip norm (any NaN/Inf gradient element) ZEROES all gradients — the
// subsequent optimizer step becomes a no-op instead of poisoning every
// weight — and the raw non-finite norm is returned so callers can observe
// and report the event (see docs/ROBUSTNESS.md).
float clip_grad_norm(const std::vector<Parameter*>& params, float max_norm);

}  // namespace a3cs::nn
