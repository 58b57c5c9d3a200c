// Composite blocks: residual blocks (ResNet proxies) and inverted-residual
// blocks (MobileNetV2-style), the candidate operators of the A3C-S supernet.
#pragma once

#include <memory>

#include "nn/layers.h"

namespace a3cs::nn {

// conv(k,s) -> ReLU -> conv(k,1) [+ optional 1x1/s projection skip] -> ReLU
class ResidualBlock : public Module {
 public:
  ResidualBlock(std::string name, int in_c, int out_c, int kernel, int stride,
                util::Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Conv2d conv1_;
  ReLU relu1_;
  Conv2d conv2_;
  ReLU relu2_;
  std::unique_ptr<Conv2d> proj_;  // non-null when in_c != out_c or stride > 1
  bool identity_skip_ = false;
};

// 1x1 expand -> ReLU -> depthwise k x k (stride) -> ReLU -> 1x1 project,
// with an identity skip when stride == 1 and in_c == out_c.
class InvertedResidual : public Module {
 public:
  InvertedResidual(std::string name, int in_c, int out_c, int kernel,
                   int expansion, int stride, util::Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::string name() const override { return name_; }

  int expansion() const { return expansion_; }

 private:
  std::string name_;
  int expansion_;
  Conv2d expand_;
  ReLU relu1_;
  DepthwiseConv2d dw_;
  ReLU relu2_;
  Conv2d project_;
  bool has_skip_;
};

// Identity / strided-average "skip connection" operator for the supernet.
// With stride 1 and matching channels it is the identity; otherwise it
// downsamples by striding and matches channels with a (fixed, non-learned)
// channel replication/truncation so the op stays parameter-free.
class SkipOp : public Module {
 public:
  SkipOp(std::string name, int in_c, int out_c, int stride);

  Tensor forward(const Tensor& x) override;
  Tensor infer(Tensor x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>&) override {}
  std::string name() const override { return name_; }

 private:
  std::string name_;
  int in_c_, out_c_, stride_;
  Shape cached_in_shape_;
};

}  // namespace a3cs::nn
