#include "nn/layers.h"

#include <algorithm>

#include "nn/init.h"
#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "tensor/backend/backend.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace a3cs::nn {

using tensor::ConvGeometry;
using tensor::gemm_raw;

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(std::string name, int in_c, int out_c, int kernel, int stride,
               int pad, util::Rng& rng)
    : name_(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name_ + ".weight", Shape::mat(out_c, in_c * kernel * kernel)),
      bias_(name_ + ".bias", Shape::vec(out_c)) {
  A3CS_CHECK(in_c > 0 && out_c > 0 && kernel > 0, "bad conv dims");
  he_normal(weight_.value, in_c * kernel * kernel, rng);
}

Tensor Conv2d::forward(const Tensor& x) {
  A3CS_CHECK(x.shape().rank() == 4 && x.shape()[1] == in_c_,
             name_ + ": input shape mismatch " + x.shape().to_string());
  geom_ = ConvGeometry::make(x.shape(), kernel_, kernel_, stride_, pad_);
  const int ckk = in_c_ * kernel_ * kernel_;
  const int cols_per_sample = geom_.oh * geom_.ow;
  cached_cols_ = Tensor(Shape::mat(ckk, geom_.n * cols_per_sample));
  // im2col lays samples out contiguously along the column axis, so a single
  // whole-batch call produces per-sample (ckk x ohw) slices.
  tensor::im2col(x, geom_, cached_cols_);
  has_cache_ = true;

  Tensor out(Shape::nchw(geom_.n, out_c_, geom_.oh, geom_.ow));
  const int batch_cols = geom_.n * cols_per_sample;
  A3CS_PROF_SCOPE("conv-fwd");
  {
    // One FMA per (sample, out-channel, ckk, output-cell); weights and cols
    // read once each per use, output written once (float32). The zero-weight
    // skip below only reduces *measured* time, not the analytic model.
    static obs::perf::WorkCounters& wc =
        obs::perf::WorkCounters::named("conv-fwd");
    const std::int64_t out_cells =
        static_cast<std::int64_t>(geom_.n) * out_c_ * cols_per_sample;
    wc.add(2 * out_cells * ckk,
           4 * (static_cast<std::int64_t>(out_c_) * ckk +
                static_cast<std::int64_t>(ckk) * batch_cols),
           4 * out_cells);
  }
  // out_slice(OC x ohw) = W(OC x ckk) @ cols_slice(ckk x ohw) per sample.
  // cols_slice starts at column n*ohw of the (ckk x N*ohw) matrix, so we
  // cannot hand the whole batch to one GEMM; instead each (sample, out
  // channel) row is an independent unit of work — disjoint output rows, so
  // the fan-out over the pool is race-free and bit-exact at any thread count.
  // The per-task kernel comes from the active backend (see
  // tensor/backend/backend.h); shard boundaries are backend-independent.
  const tensor::backend::Backend& be = tensor::backend::active();
  const std::int64_t total = static_cast<std::int64_t>(geom_.n) * out_c_;
  const std::int64_t row_work =
      static_cast<std::int64_t>(ckk) * cols_per_sample;
  const std::int64_t grain =
      std::max<std::int64_t>(1, 65536 / std::max<std::int64_t>(1, row_work));
  util::parallel_for(
      0, total, grain,
      [&](std::int64_t t0, std::int64_t t1) {
        be.conv_forward_tasks(weight_.value.data(), bias_.value.data(),
                              cached_cols_.data(), out.data(), out_c_, ckk,
                              cols_per_sample, batch_cols, t0, t1);
      },
      "conv-fwd");
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");
  A3CS_CHECK(grad_out.shape() ==
                 Shape::nchw(geom_.n, out_c_, geom_.oh, geom_.ow),
             name_ + ": grad_out shape mismatch");
  const int ckk = in_c_ * kernel_ * kernel_;
  const int ohw = geom_.oh * geom_.ow;
  const int batch_cols = geom_.n * ohw;
  A3CS_PROF_SCOPE("conv-bwd");
  {
    // Weight-grad and input-grad passes are each a GEMM-shaped reduction of
    // the same (n, oc, ckk, ohw) volume — 2 FMAs per element in total.
    static obs::perf::WorkCounters& wc =
        obs::perf::WorkCounters::named("conv-bwd");
    const std::int64_t vol =
        static_cast<std::int64_t>(geom_.n) * out_c_ * ckk * ohw;
    const std::int64_t grad_cells = static_cast<std::int64_t>(ckk) * batch_cols;
    wc.add(4 * vol,
           4 * (static_cast<std::int64_t>(geom_.n) * out_c_ * ohw +
                grad_cells + static_cast<std::int64_t>(out_c_) * ckk),
           4 * (static_cast<std::int64_t>(out_c_) * ckk + grad_cells));
  }

  // Bias and weight gradients, fanned out over output channels: each oc owns
  // bias_.grad[oc] and its weight row, so shards write disjoint accumulators.
  // The batch loop stays innermost and ascending inside the backend kernel,
  // matching the serial accumulation order bit for bit (per backend).
  const tensor::backend::Backend& be = tensor::backend::active();
  util::parallel_for(
      0, out_c_, 4,
      [&](std::int64_t oc0, std::int64_t oc1) {
        be.conv_backward_wgrad(grad_out.data(), cached_cols_.data(),
                               weight_.grad.data(), bias_.grad.data(),
                               geom_.n, out_c_, ckk, ohw, batch_cols,
                               static_cast<int>(oc0), static_cast<int>(oc1));
      },
      "conv-bwd");

  // Column gradient, fanned out over samples (disjoint column slices):
  // grad_cols_slice(ckk x ohw) = W^T(ckk x OC) @ g(OC x ohw).
  Tensor grad_cols(Shape::mat(ckk, batch_cols));
  util::parallel_for(
      0, geom_.n, 1,
      [&](std::int64_t n0, std::int64_t n1) {
        be.conv_backward_colgrad(grad_out.data(), weight_.value.data(),
                                 grad_cols.data(), out_c_, ckk, ohw,
                                 batch_cols, static_cast<int>(n0),
                                 static_cast<int>(n1));
      },
      "conv-bwd");

  Tensor grad_input(Shape::nchw(geom_.n, in_c_, geom_.h, geom_.w));
  tensor::col2im(grad_cols, geom_, grad_input);
  has_cache_ = false;
  return grad_input;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ------------------------------------------------------- DepthwiseConv2d --

DepthwiseConv2d::DepthwiseConv2d(std::string name, int channels, int kernel,
                                 int stride, int pad, util::Rng& rng)
    : name_(std::move(name)),
      channels_(channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(name_ + ".weight", Shape::mat(channels, kernel * kernel)),
      bias_(name_ + ".bias", Shape::vec(channels)) {
  he_normal(weight_.value, kernel * kernel, rng);
}

Tensor DepthwiseConv2d::forward(const Tensor& x) {
  A3CS_CHECK(x.shape().rank() == 4 && x.shape()[1] == channels_,
             name_ + ": input shape mismatch");
  const auto g =
      ConvGeometry::make(x.shape(), kernel_, kernel_, stride_, pad_);
  cached_input_ = x;
  has_cache_ = true;
  Tensor out(Shape::nchw(g.n, channels_, g.oh, g.ow));
  const std::int64_t taps = static_cast<std::int64_t>(kernel_) * kernel_;
  const std::int64_t plane_out = static_cast<std::int64_t>(g.oh) * g.ow;
  const std::int64_t planes = static_cast<std::int64_t>(g.n) * channels_;
  A3CS_PROF_SCOPE("dw-fwd");
  {
    // One FMA per (output cell, tap); input, weights and bias read once,
    // output written once (float32).
    static obs::perf::WorkCounters& wc =
        obs::perf::WorkCounters::named("dw-fwd");
    wc.add(2 * taps * planes * plane_out,
           4 * (x.numel() + channels_ * (taps + 1)), 4 * planes * plane_out);
  }
  // One (sample, channel) output plane per index: disjoint writes, and each
  // plane's taps are reduced inside one backend call, so the fan-out is
  // bit-exact at any thread count.
  const tensor::backend::Backend& be = tensor::backend::active();
  const std::int64_t grain = std::max<std::int64_t>(
      1, 16384 / std::max<std::int64_t>(1, taps * plane_out));
  util::parallel_for(
      0, planes, grain,
      [&](std::int64_t p0, std::int64_t p1) {
        be.dw_forward_planes(x.data(), weight_.value.data(),
                             bias_.value.data(), g, out.data(), p0, p1);
      },
      "dw-fwd");
  return out;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");
  const Tensor& x = cached_input_;
  const auto g =
      ConvGeometry::make(x.shape(), kernel_, kernel_, stride_, pad_);
  A3CS_CHECK(grad_out.shape() == Shape::nchw(g.n, channels_, g.oh, g.ow),
             name_ + ": grad_out shape mismatch");
  const std::int64_t taps = static_cast<std::int64_t>(kernel_) * kernel_;
  const std::int64_t channel_out =
      static_cast<std::int64_t>(g.n) * g.oh * g.ow;
  A3CS_PROF_SCOPE("dw-bwd");
  {
    // Weight-grad and input-grad FMAs per (output cell, tap); reads
    // grad_out, the cached input and the weights, writes grad_input and the
    // weight/bias gradients.
    static obs::perf::WorkCounters& wc =
        obs::perf::WorkCounters::named("dw-bwd");
    const std::int64_t params = channels_ * (taps + 1);
    wc.add(4 * taps * channels_ * channel_out,
           4 * (grad_out.numel() + x.numel() + params),
           4 * (x.numel() + params));
  }
  // Fanned out over channels only: channel c owns weight row c, bias[c] and
  // the grad_input planes (n, c) for every n, and walks n ascending inside
  // its shard — the serial accumulation order of those accumulators. A
  // (n, c) split would make two shards add into the same weight row.
  Tensor grad_input(x.shape());
  const tensor::backend::Backend& be = tensor::backend::active();
  const std::int64_t grain = std::max<std::int64_t>(
      1, 16384 / std::max<std::int64_t>(1, taps * channel_out));
  util::parallel_for(
      0, channels_, grain,
      [&](std::int64_t c0, std::int64_t c1) {
        be.dw_backward_channels(grad_out.data(), x.data(),
                                weight_.value.data(), g, grad_input.data(),
                                weight_.grad.data(), bias_.grad.data(),
                                static_cast<int>(c0), static_cast<int>(c1));
      },
      "dw-bwd");
  has_cache_ = false;
  return grad_input;
}

void DepthwiseConv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::string name, int in_features, int out_features,
               util::Rng& rng, float init_scale)
    : name_(std::move(name)),
      in_f_(in_features),
      out_f_(out_features),
      weight_(name_ + ".weight", Shape::mat(out_features, in_features)),
      bias_(name_ + ".bias", Shape::vec(out_features)) {
  he_normal(weight_.value, in_features, rng);
  if (init_scale != 1.0f) scale_init(weight_.value, init_scale);
}

Tensor Linear::forward(const Tensor& x) {
  A3CS_CHECK(x.shape().rank() == 2 && x.shape()[1] == in_f_,
             name_ + ": input shape mismatch " + x.shape().to_string());
  cached_input_ = x;
  has_cache_ = true;
  const int n = x.shape()[0];
  Tensor out(Shape::mat(n, out_f_));
  for (int i = 0; i < n; ++i) {
    float* orow = out.data() + static_cast<std::size_t>(i) * out_f_;
    for (int o = 0; o < out_f_; ++o) orow[o] = bias_.value[o];
  }
  // out(n x OUT) += x(n x IN) @ W^T(IN x OUT)
  gemm_raw(x.data(), false, weight_.value.data(), true, out.data(), n, in_f_,
           out_f_, 1.0f, 1.0f);
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");
  const int n = cached_input_.shape()[0];
  A3CS_CHECK(grad_out.shape() == Shape::mat(n, out_f_),
             name_ + ": grad_out shape mismatch");
  // grad_W(OUT x IN) += g^T(OUT x n) @ x(n x IN)
  gemm_raw(grad_out.data(), true, cached_input_.data(), false,
           weight_.grad.data(), out_f_, n, in_f_, 1.0f, 1.0f);
  // grad_b += column sums of g
  for (int i = 0; i < n; ++i) {
    const float* grow = grad_out.data() + static_cast<std::size_t>(i) * out_f_;
    for (int o = 0; o < out_f_; ++o) bias_.grad[o] += grow[o];
  }
  // grad_x(n x IN) = g(n x OUT) @ W(OUT x IN)
  Tensor grad_input(Shape::mat(n, in_f_));
  gemm_raw(grad_out.data(), false, weight_.value.data(), false,
           grad_input.data(), n, out_f_, in_f_, 1.0f, 0.0f);
  has_cache_ = false;
  return grad_input;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  out.push_back(&bias_);
}

// ------------------------------------------------------------------ ReLU --

Tensor ReLU::forward(const Tensor& x) {
  cached_input_ = x;
  has_cache_ = true;
  Tensor out = x;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    if (out[i] < 0.0f) out[i] = 0.0f;
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");
  A3CS_CHECK(grad_out.same_shape(cached_input_),
             name_ + ": grad_out shape mismatch");
  Tensor grad_input = grad_out;
  for (std::int64_t i = 0; i < grad_input.numel(); ++i) {
    if (cached_input_[i] <= 0.0f) grad_input[i] = 0.0f;
  }
  has_cache_ = false;
  return grad_input;
}

// --------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x) {
  A3CS_CHECK(x.shape().rank() == 4, name_ + ": expects NCHW input");
  cached_shape_ = x.shape();
  const int n = x.shape()[0];
  const int f = static_cast<int>(x.numel() / n);
  return x.reshaped(Shape::mat(n, f));
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(cached_shape_);
}

// ------------------------------------------------------------ Sequential --

Sequential& Sequential::add(std::unique_ptr<Module> m) {
  children_.push_back(std::move(m));
  return *this;
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor cur = x;
  for (auto& child : children_) cur = child->forward(cur);
  return cur;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor cur = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return cur;
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (auto& child : children_) child->collect_parameters(out);
}

}  // namespace a3cs::nn
