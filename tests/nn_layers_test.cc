#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "conv_shapes.h"
#include "grad_check.h"
#include "nn/blocks.h"
#include "nn/layers.h"
#include "tensor/backend/backend.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

using nn::Shape;
using nn::Tensor;
using testing::check_module_gradients;

// ------------------------------------------------- gradient checks --------

struct ConvParam {
  int n, in_c, out_c, k, stride, h, w;
};

class Conv2dGradTest : public ::testing::TestWithParam<ConvParam> {};

TEST_P(Conv2dGradTest, FiniteDifference) {
  const ConvParam p = GetParam();
  util::Rng rng(100);
  nn::Conv2d conv("conv", p.in_c, p.out_c, p.k, p.stride, p.k / 2, rng);
  check_module_gradients(conv, Shape::nchw(p.n, p.in_c, p.h, p.w));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dGradTest,
    ::testing::Values(ConvParam{1, 2, 3, 3, 1, 5, 5},
                      ConvParam{2, 3, 4, 3, 2, 6, 6},
                      ConvParam{1, 2, 2, 5, 2, 8, 8},
                      ConvParam{2, 1, 4, 1, 1, 4, 4},
                      ConvParam{1, 4, 2, 3, 1, 3, 3},
                      ConvParam{3, 2, 2, 3, 2, 5, 5}));

struct DwParam {
  int n, c, k, stride, h, w;
};

class DepthwiseGradTest : public ::testing::TestWithParam<DwParam> {};

TEST_P(DepthwiseGradTest, FiniteDifference) {
  const DwParam p = GetParam();
  util::Rng rng(101);
  nn::DepthwiseConv2d dw("dw", p.c, p.k, p.stride, p.k / 2, rng);
  check_module_gradients(dw, Shape::nchw(p.n, p.c, p.h, p.w));
}

// Besides the plain cases: k5 on planes smaller than the kernel (no
// interior columns at all), stride 2 on odd sizes, and N >= 3 with C >= 8;
// the last case is large enough that the (n, c) forward and the channel
// backward fan-outs split into 5 and 6 shards.
INSTANTIATE_TEST_SUITE_P(Geometries, DepthwiseGradTest,
                         ::testing::Values(DwParam{1, 3, 3, 1, 5, 5},
                                           DwParam{2, 4, 3, 2, 6, 6},
                                           DwParam{1, 2, 5, 1, 7, 7},
                                           DwParam{2, 6, 5, 2, 6, 6},
                                           DwParam{2, 3, 5, 1, 2, 2},
                                           DwParam{2, 3, 5, 1, 3, 3},
                                           DwParam{1, 2, 5, 2, 3, 3},
                                           DwParam{2, 3, 3, 2, 5, 5},
                                           DwParam{1, 2, 5, 2, 7, 7},
                                           DwParam{3, 8, 3, 1, 6, 6},
                                           DwParam{4, 9, 5, 2, 5, 5},
                                           DwParam{3, 16, 5, 1, 8, 8}));

// The depthwise loops as they stood before the backend kernels: bounds
// checks on every tap, Tensor::at4 indexing, serial (n, c) order. The
// scalar backend must reproduce them bit for bit.
Tensor reference_dw_forward(const Tensor& x, const Tensor& weight,
                            const Tensor& bias, int kernel, int stride,
                            int pad) {
  const auto g =
      tensor::ConvGeometry::make(x.shape(), kernel, kernel, stride, pad);
  Tensor out(Shape::nchw(g.n, g.c, g.oh, g.ow));
  for (int n = 0; n < g.n; ++n) {
    for (int c = 0; c < g.c; ++c) {
      const float* w =
          weight.data() + static_cast<std::size_t>(c) * kernel * kernel;
      const float b = bias[c];
      for (int oy = 0; oy < g.oh; ++oy) {
        for (int ox = 0; ox < g.ow; ++ox) {
          float acc = b;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= g.h) continue;
            for (int kx = 0; kx < kernel; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= g.w) continue;
              acc += w[ky * kernel + kx] * x.at4(n, c, iy, ix);
            }
          }
          out.at4(n, c, oy, ox) = acc;
        }
      }
    }
  }
  return out;
}

Tensor reference_dw_backward(const Tensor& x, const Tensor& grad_out,
                             const Tensor& weight, Tensor& weight_grad,
                             Tensor& bias_grad, int kernel, int stride,
                             int pad) {
  const auto g =
      tensor::ConvGeometry::make(x.shape(), kernel, kernel, stride, pad);
  Tensor grad_input(x.shape());
  for (int n = 0; n < g.n; ++n) {
    for (int c = 0; c < g.c; ++c) {
      const float* w =
          weight.data() + static_cast<std::size_t>(c) * kernel * kernel;
      float* wg =
          weight_grad.data() + static_cast<std::size_t>(c) * kernel * kernel;
      double bias_acc = 0.0;
      for (int oy = 0; oy < g.oh; ++oy) {
        for (int ox = 0; ox < g.ow; ++ox) {
          const float go = grad_out.at4(n, c, oy, ox);
          bias_acc += go;
          if (go == 0.0f) continue;
          for (int ky = 0; ky < kernel; ++ky) {
            const int iy = oy * stride - pad + ky;
            if (iy < 0 || iy >= g.h) continue;
            for (int kx = 0; kx < kernel; ++kx) {
              const int ix = ox * stride - pad + kx;
              if (ix < 0 || ix >= g.w) continue;
              wg[ky * kernel + kx] += go * x.at4(n, c, iy, ix);
              grad_input.at4(n, c, iy, ix) += go * w[ky * kernel + kx];
            }
          }
        }
      }
      bias_grad[c] += static_cast<float>(bias_acc);
    }
  }
  return grad_input;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

Tensor random_tensor(const Shape& shape, util::Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// Forward, then two accumulating backwards (the second from nonzero
// gradients) of the module; returns {out, grad_input, weight.grad,
// bias.grad} of the last pass.
std::vector<Tensor> run_dw(nn::DepthwiseConv2d& dw, const Tensor& x,
                           const Tensor& g) {
  dw.zero_grad();
  Tensor out = dw.forward(x);
  dw.backward(g);
  dw.forward(x);
  Tensor gi = dw.backward(g);
  auto params = dw.parameters();
  return {out, gi, params[0]->grad, params[1]->grad};
}

TEST_P(DepthwiseGradTest, ScalarBackendBitExactWithBoundsCheckedLoop) {
  const DwParam p = GetParam();
  const int pad = p.k / 2;
  util::Rng rng(106);
  nn::DepthwiseConv2d dw("dw", p.c, p.k, p.stride, pad, rng);
  auto params = dw.parameters();
  for (std::int64_t i = 0; i < params[1]->value.numel(); ++i) {
    params[1]->value[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  const Tensor x = random_tensor(Shape::nchw(p.n, p.c, p.h, p.w), rng);
  const auto g = tensor::ConvGeometry::make(x.shape(), p.k, p.k, p.stride, pad);
  Tensor go = random_tensor(Shape::nchw(p.n, p.c, g.oh, g.ow), rng);
  // Zeros exercise the kernels' go == 0 skip.
  for (std::int64_t i = 0; i < go.numel(); i += 3) go[i] = 0.0f;

  const Tensor ref_out = reference_dw_forward(x, params[0]->value,
                                              params[1]->value, p.k, p.stride,
                                              pad);
  Tensor ref_wg(params[0]->value.shape()), ref_bg(params[1]->value.shape());
  reference_dw_backward(x, go, params[0]->value, ref_wg, ref_bg, p.k,
                        p.stride, pad);
  const Tensor ref_gi = reference_dw_backward(x, go, params[0]->value, ref_wg,
                                              ref_bg, p.k, p.stride, pad);

  tensor::backend::ScopedBackend scalar(tensor::backend::scalar_backend());
  for (const int threads : {1, 4}) {
    util::ThreadPool::set_global_threads(threads);
    const auto got = run_dw(dw, x, go);
    EXPECT_TRUE(bit_equal(got[0], ref_out)) << "forward, t=" << threads;
    EXPECT_TRUE(bit_equal(got[1], ref_gi)) << "grad_input, t=" << threads;
    EXPECT_TRUE(bit_equal(got[2], ref_wg)) << "weight grad, t=" << threads;
    EXPECT_TRUE(bit_equal(got[3], ref_bg)) << "bias grad, t=" << threads;
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(DepthwiseConv2d, EveryBackendBitIdenticalAtOneAndFourThreads) {
  struct Case {
    int n, c, k, stride, h, w;
  };
  const Case cases[] = {{8, 40, 3, 1, 6, 6}, {5, 48, 5, 2, 3, 3},
                        {3, 96, 5, 1, 2, 2}, {6, 40, 3, 2, 7, 7}};
  for (const std::string& name : tensor::backend::available_names()) {
    ASSERT_TRUE(tensor::backend::select(name));
    for (const Case& cs : cases) {
      util::Rng rng(107);
      nn::DepthwiseConv2d dw("dw", cs.c, cs.k, cs.stride, cs.k / 2, rng);
      const Tensor x =
          random_tensor(Shape::nchw(cs.n, cs.c, cs.h, cs.w), rng);
      const auto g = tensor::ConvGeometry::make(x.shape(), cs.k, cs.k,
                                                cs.stride, cs.k / 2);
      const Tensor go =
          random_tensor(Shape::nchw(cs.n, cs.c, g.oh, g.ow), rng);
      util::ThreadPool::set_global_threads(1);
      const auto serial = run_dw(dw, x, go);
      util::ThreadPool::set_global_threads(4);
      const auto sharded = run_dw(dw, x, go);
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(bit_equal(serial[i], sharded[i]))
            << name << " output " << i << " differs, case k" << cs.k << " s"
            << cs.stride << " " << cs.h << "x" << cs.w;
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
  tensor::backend::select("scalar");
}

struct LinParam {
  int n, in_f, out_f;
};

class LinearGradTest : public ::testing::TestWithParam<LinParam> {};

TEST_P(LinearGradTest, FiniteDifference) {
  const LinParam p = GetParam();
  util::Rng rng(102);
  nn::Linear lin("lin", p.in_f, p.out_f, rng);
  check_module_gradients(lin, Shape::mat(p.n, p.in_f));
}

INSTANTIATE_TEST_SUITE_P(Geometries, LinearGradTest,
                         ::testing::Values(LinParam{1, 4, 3},
                                           LinParam{5, 8, 2},
                                           LinParam{2, 16, 16},
                                           LinParam{3, 1, 7}));

TEST(ReLUGrad, FiniteDifference) {
  nn::ReLU relu;
  check_module_gradients(relu, Shape::mat(3, 8));
}

TEST(FlattenGrad, FiniteDifference) {
  nn::Flatten flatten;
  check_module_gradients(flatten, Shape::nchw(2, 3, 4, 4));
}

TEST(SequentialGrad, ConvReluLinearStack) {
  util::Rng rng(103);
  auto seq = std::make_unique<nn::Sequential>("stack");
  seq->add(std::make_unique<nn::Conv2d>("c1", 2, 4, 3, 2, 1, rng));
  seq->add(std::make_unique<nn::ReLU>());
  seq->add(std::make_unique<nn::Flatten>());
  seq->add(std::make_unique<nn::Linear>("l1", 4 * 3 * 3, 5, rng));
  check_module_gradients(*seq, Shape::nchw(2, 2, 6, 6));
}

struct BlockParam {
  int in_c, out_c, k, stride;
};

class ResidualGradTest : public ::testing::TestWithParam<BlockParam> {};

TEST_P(ResidualGradTest, FiniteDifference) {
  const BlockParam p = GetParam();
  util::Rng rng(104);
  nn::ResidualBlock block("rb", p.in_c, p.out_c, p.k, p.stride, rng);
  // Composite blocks stack two ReLUs: finite differences occasionally cross
  // a kink, so the tolerance is looser than for primitive layers (wiring
  // errors would show up as order-1 discrepancies, not a few percent).
  testing::GradCheckOptions opt;
  opt.rel_tol = 0.15f;
  opt.abs_tol = 5e-2f;
  check_module_gradients(block, Shape::nchw(2, p.in_c, 6, 6), 1234, opt);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ResidualGradTest,
                         ::testing::Values(BlockParam{3, 3, 3, 1},
                                           BlockParam{2, 4, 3, 2},
                                           BlockParam{4, 4, 3, 2},
                                           BlockParam{2, 6, 3, 1}));

class InvResGradTest : public ::testing::TestWithParam<BlockParam> {};

TEST_P(InvResGradTest, FiniteDifference) {
  const BlockParam p = GetParam();
  util::Rng rng(105);
  // BlockParam.k reused as kernel, stride as stride; expansion 3.
  nn::InvertedResidual block("ir", p.in_c, p.out_c, p.k, 3, p.stride, rng);
  testing::GradCheckOptions opt;
  opt.rel_tol = 0.15f;
  opt.abs_tol = 5e-2f;
  check_module_gradients(block, Shape::nchw(2, p.in_c, 6, 6), 1234, opt);
}

INSTANTIATE_TEST_SUITE_P(Geometries, InvResGradTest,
                         ::testing::Values(BlockParam{3, 3, 3, 1},
                                           BlockParam{2, 4, 3, 2},
                                           BlockParam{3, 3, 5, 1},
                                           BlockParam{2, 5, 5, 2}));

TEST(SkipOpGrad, IdentityCase) {
  nn::SkipOp skip("skip", 3, 3, 1);
  check_module_gradients(skip, Shape::nchw(2, 3, 4, 4));
}

TEST(SkipOpGrad, StridedChannelChangingCase) {
  nn::SkipOp skip("skip", 2, 4, 2);
  check_module_gradients(skip, Shape::nchw(2, 2, 6, 6));
}

// ------------------------------------------------- forward semantics ------

TEST(Conv2d, OutputShapeAndBias) {
  util::Rng rng(1);
  nn::Conv2d conv("c", 2, 3, 3, 2, 1, rng);
  // Zero weights isolate the bias.
  conv.weight().value.zero();
  conv.bias().value = Tensor(Shape::vec(3), {1.0f, 2.0f, 3.0f});
  Tensor x(Shape::nchw(2, 2, 6, 6), 0.5f);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), Shape::nchw(2, 3, 3, 3));
  EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 1.0f);
  EXPECT_FLOAT_EQ(y.at4(1, 2, 2, 2), 3.0f);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  util::Rng rng(1);
  nn::Conv2d conv("c", 1, 1, 3, 1, 1, rng);
  conv.weight().value.zero();
  conv.weight().value[4] = 1.0f;  // center tap of the 3x3 kernel
  conv.bias().value.zero();
  Tensor x(Shape::nchw(1, 1, 4, 4));
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  Tensor y = conv.forward(x);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  util::Rng rng(1);
  nn::Conv2d conv("c", 2, 3, 3, 1, 1, rng);
  Tensor x(Shape::nchw(1, 5, 6, 6));
  EXPECT_THROW(conv.forward(x), std::runtime_error);
}

// The conv kernels as they stood before the batch-column register tiles,
// copied verbatim: one (sample, out-channel) output row, one weight-gradient
// row and one column-gradient slice at a time. The scalar backend must
// reproduce them bit for bit.
void reference_conv_forward_tasks(const float* weight, const float* bias,
                                  const float* cols, float* out, int out_c,
                                  int ckk, int cols_per_sample, int batch_cols,
                                  std::int64_t t0, std::int64_t t1) {
  for (std::int64_t t = t0; t < t1; ++t) {
    const int n = static_cast<int>(t / out_c);
    const int oc = static_cast<int>(t % out_c);
    float* orow =
        out + (static_cast<std::size_t>(n) * out_c + oc) * cols_per_sample;
    std::fill(orow, orow + cols_per_sample, bias[oc]);
    const float* wrow = weight + static_cast<std::size_t>(oc) * ckk;
    for (int kk = 0; kk < ckk; ++kk) {
      const float wv = wrow[kk];
      if (wv == 0.0f) continue;
      const float* crow = cols + static_cast<std::size_t>(kk) * batch_cols +
                          static_cast<std::size_t>(n) * cols_per_sample;
      for (int j = 0; j < cols_per_sample; ++j) orow[j] += wv * crow[j];
    }
  }
}

void reference_conv_backward_wgrad(const float* grad_out, const float* cols,
                                   float* weight_grad, float* bias_grad, int n,
                                   int out_c, int ckk, int ohw, int batch_cols,
                                   int oc0, int oc1) {
  for (int oc = oc0; oc < oc1; ++oc) {
    float* wrow = weight_grad + static_cast<std::size_t>(oc) * ckk;
    for (int s = 0; s < n; ++s) {
      const float* grow =
          grad_out + (static_cast<std::size_t>(s) * out_c + oc) * ohw;
      double acc = 0.0;
      for (int j = 0; j < ohw; ++j) acc += grow[j];
      bias_grad[oc] += static_cast<float>(acc);
      // grad_W(OC x ckk) += g(OC x ohw) @ cols_slice^T(ohw x ckk)
      for (int kk = 0; kk < ckk; ++kk) {
        const float* crow = cols + static_cast<std::size_t>(kk) * batch_cols +
                            static_cast<std::size_t>(s) * ohw;
        double wacc = 0.0;
        for (int j = 0; j < ohw; ++j) wacc += grow[j] * crow[j];
        wrow[kk] += static_cast<float>(wacc);
      }
    }
  }
}

void reference_conv_backward_colgrad(const float* grad_out, const float* weight,
                                     float* grad_cols, int out_c, int ckk,
                                     int ohw, int batch_cols, int n0, int n1) {
  for (int n = n0; n < n1; ++n) {
    const float* g_slice =
        grad_out + static_cast<std::size_t>(n) * out_c * ohw;
    for (int kk = 0; kk < ckk; ++kk) {
      float* gc = grad_cols + static_cast<std::size_t>(kk) * batch_cols +
                  static_cast<std::size_t>(n) * ohw;
      std::fill(gc, gc + ohw, 0.0f);
      for (int oc = 0; oc < out_c; ++oc) {
        const float wv = weight[static_cast<std::size_t>(oc) * ckk + kk];
        if (wv == 0.0f) continue;
        const float* grow = g_slice + static_cast<std::size_t>(oc) * ohw;
        for (int j = 0; j < ohw; ++j) gc[j] += wv * grow[j];
      }
    }
  }
}

TEST(Conv2d, ScalarKernelsBitIdenticalToRowReferenceAtSearchShapes) {
  std::vector<testing::ConvShape> shapes = testing::search_conv_shapes();
  // Odd edges the search never hits: out_c not a multiple of the 4-channel
  // tile, batches narrower than one 16-column tile or one 4-column vector.
  shapes.push_back({3, 5, 6, 3, 1, 3, 3});
  shapes.push_back({1, 4, 7, 3, 1, 3, 3});
  shapes.push_back({2, 3, 5, 1, 1, 1, 1});
  const float inf = std::numeric_limits<float>::infinity();
  tensor::backend::ScopedBackend scalar(tensor::backend::scalar_backend());
  util::Rng rng(108);
  for (const testing::ConvShape& cs : shapes) {
    SCOPED_TRACE(cs.label());
    nn::Conv2d conv("conv", cs.in_c, cs.out_c, cs.kernel, cs.stride, cs.pad(),
                    rng);
    Tensor& weight = conv.weight().value;
    Tensor& bias = conv.bias().value;
    const int ckk = cs.ckk(), cps = cs.cps(), batch_cols = cs.batch_cols();
    for (std::int64_t i = 0; i < bias.numel(); ++i) {
      bias[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
    // Scattered zero weights; out-channel 0 is all zeros over a -0.0 bias
    // (the skip keeps -0.0, an unskipped +0 * c would make it +0), and
    // out-channel 1 skips every tap of input channel 0, which holds an inf
    // (the skip keeps it finite, 0 * inf would be NaN).
    for (std::int64_t i = 0; i < weight.numel(); i += 5) weight[i] = 0.0f;
    for (int kk = 0; kk < ckk; ++kk) weight[kk] = 0.0f;
    bias[0] = -0.0f;
    if (cs.out_c > 1) {
      for (int kk = 0; kk < cs.kernel * cs.kernel; ++kk) {
        weight[ckk + kk] = 0.0f;
      }
    }
    Tensor x = random_tensor(Shape::nchw(cs.n, cs.in_c, cs.h, cs.w), rng);
    const int inf_sample = cs.n / 2;  // input channel 0, centre pixel
    x[static_cast<std::int64_t>(inf_sample) * cs.in_c * cs.h * cs.w +
      cs.h * cs.w / 2] = inf;
    Tensor go = random_tensor(Shape::nchw(cs.n, cs.out_c, cs.oh(), cs.ow()),
                              rng);
    for (std::int64_t i = 0; i < go.numel(); i += 7) go[i] = 0.0f;
    if (cs.out_c > 1) go[cps] = inf;  // sample 0, out-channel 1

    // Reference: forward, then two accumulating backwards.
    const auto g = tensor::ConvGeometry::make(x.shape(), cs.kernel, cs.kernel,
                                              cs.stride, cs.pad());
    Tensor cols(Shape::mat(ckk, batch_cols));
    tensor::im2col(x, g, cols);
    Tensor ref_out(Shape::nchw(cs.n, cs.out_c, cs.oh(), cs.ow()));
    reference_conv_forward_tasks(weight.data(), bias.data(), cols.data(),
                                 ref_out.data(), cs.out_c, ckk, cps,
                                 batch_cols, 0,
                                 static_cast<std::int64_t>(cs.n) * cs.out_c);
    Tensor ref_wg(weight.shape()), ref_bg(bias.shape());
    for (int pass = 0; pass < 2; ++pass) {
      reference_conv_backward_wgrad(go.data(), cols.data(), ref_wg.data(),
                                    ref_bg.data(), cs.n, cs.out_c, ckk, cps,
                                    batch_cols, 0, cs.out_c);
    }
    Tensor ref_gc(Shape::mat(ckk, batch_cols));
    reference_conv_backward_colgrad(go.data(), weight.data(), ref_gc.data(),
                                    cs.out_c, ckk, cps, batch_cols, 0, cs.n);
    Tensor ref_gi(x.shape());
    tensor::col2im(ref_gc, g, ref_gi);

    for (const int threads : {1, 2, 3, 4}) {
      util::ThreadPool::set_global_threads(threads);
      conv.zero_grad();
      const Tensor out = conv.forward(x);
      conv.backward(go);
      conv.forward(x);
      const Tensor gi = conv.backward(go);
      EXPECT_TRUE(bit_equal(out, ref_out)) << "forward, t=" << threads;
      EXPECT_TRUE(bit_equal(gi, ref_gi)) << "grad_input, t=" << threads;
      EXPECT_TRUE(bit_equal(conv.weight().grad, ref_wg))
          << "weight grad, t=" << threads;
      EXPECT_TRUE(bit_equal(conv.bias().grad, ref_bg))
          << "bias grad, t=" << threads;
    }
    // The edge cases really are exercised.
    EXPECT_TRUE(std::signbit(ref_out[0]) && ref_out[0] == 0.0f);
    if (cs.out_c > 1) {
      const std::int64_t row =
          (static_cast<std::int64_t>(inf_sample) * cs.out_c + 1) * cps;
      for (int p = 0; p < cps; ++p) {
        EXPECT_TRUE(std::isfinite(ref_out[row + p]));
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(Linear, MatchesManualComputation) {
  util::Rng rng(1);
  nn::Linear lin("l", 2, 2, rng);
  auto params = lin.parameters();
  params[0]->value = Tensor(Shape::mat(2, 2), {1, 2, 3, 4});  // W
  params[1]->value = Tensor(Shape::vec(2), {10, 20});         // b
  Tensor x(Shape::mat(1, 2), {5, 6});
  Tensor y = lin.forward(x);
  // y = x @ W^T + b = [5*1+6*2+10, 5*3+6*4+20]
  EXPECT_FLOAT_EQ(y.at2(0, 0), 27.0f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 59.0f);
}

TEST(ReLU, ClampsNegatives) {
  nn::ReLU relu;
  Tensor x(Shape::vec(4), {-1, 0, 2, -3});
  Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 0);
  EXPECT_FLOAT_EQ(y[2], 2);
  EXPECT_FLOAT_EQ(y[3], 0);
}

TEST(Flatten, ShapeRoundTrip) {
  nn::Flatten f;
  Tensor x(Shape::nchw(2, 3, 4, 5));
  Tensor y = f.forward(x);
  EXPECT_EQ(y.shape(), Shape::mat(2, 60));
  Tensor back = f.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(SkipOp, IdentityPassThrough) {
  nn::SkipOp skip("s", 3, 3, 1);
  Tensor x(Shape::nchw(1, 3, 4, 4), 0.7f);
  Tensor y = skip.forward(x);
  EXPECT_TRUE(y.same_shape(x));
  EXPECT_FLOAT_EQ(y[5], 0.7f);
}

TEST(SkipOp, StridedOutputShape) {
  nn::SkipOp skip("s", 2, 4, 2);
  Tensor x(Shape::nchw(1, 2, 6, 6));
  Tensor y = skip.forward(x);
  EXPECT_EQ(y.shape(), Shape::nchw(1, 4, 3, 3));
}

TEST(BackwardBeforeForward, Throws) {
  util::Rng rng(1);
  nn::Conv2d conv("c", 1, 1, 3, 1, 1, rng);
  Tensor g(Shape::nchw(1, 1, 4, 4));
  EXPECT_THROW(conv.backward(g), std::runtime_error);
}

// ------------------------------------------------- parameters / utils -----

TEST(Parameters, CountsAndNames) {
  util::Rng rng(1);
  nn::Conv2d conv("myconv", 2, 3, 3, 1, 1, rng);
  auto params = conv.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->name, "myconv.weight");
  EXPECT_EQ(params[1]->name, "myconv.bias");
  EXPECT_EQ(params[0]->numel(), 3 * 2 * 9);
  EXPECT_EQ(params[1]->numel(), 3);
  EXPECT_EQ(conv.num_parameters(), 3 * 2 * 9 + 3);
}

TEST(Parameters, ZeroGradClearsAll) {
  util::Rng rng(1);
  nn::Linear lin("l", 3, 2, rng);
  Tensor x(Shape::mat(1, 3), {1, 2, 3});
  lin.forward(x);
  lin.backward(Tensor(Shape::mat(1, 2), {1, 1}));
  EXPECT_GT(lin.parameters()[0]->grad.abs_max(), 0.0f);
  lin.zero_grad();
  EXPECT_FLOAT_EQ(lin.parameters()[0]->grad.abs_max(), 0.0f);
}

TEST(Parameters, GradientsAccumulateAcrossBackwards) {
  util::Rng rng(1);
  nn::Linear lin("l", 2, 1, rng);
  Tensor x(Shape::mat(1, 2), {1, 1});
  Tensor g(Shape::mat(1, 1), {1});
  lin.forward(x);
  lin.backward(g);
  const float once = lin.parameters()[0]->grad[0];
  lin.forward(x);
  lin.backward(g);
  EXPECT_FLOAT_EQ(lin.parameters()[0]->grad[0], 2 * once);
}

TEST(CopyParameters, TransfersValues) {
  util::Rng rng1(1), rng2(2);
  nn::Linear a("a", 3, 2, rng1), b("b", 3, 2, rng2);
  EXPECT_NE(a.parameters()[0]->value[0], b.parameters()[0]->value[0]);
  nn::copy_parameters(a, b);
  for (std::int64_t i = 0; i < a.parameters()[0]->value.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.parameters()[0]->value[i], b.parameters()[0]->value[i]);
  }
}

TEST(ClipGradNorm, ScalesDownLargeGradients) {
  util::Rng rng(1);
  nn::Linear lin("l", 2, 2, rng);
  auto params = lin.parameters();
  params[0]->grad.fill(10.0f);
  params[1]->grad.fill(10.0f);
  const float norm_before = nn::clip_grad_norm(params, 1.0f);
  EXPECT_GT(norm_before, 1.0f);
  double total = 0.0;
  for (auto* p : params) {
    const float n = p->grad.norm();
    total += static_cast<double>(n) * n;
  }
  EXPECT_NEAR(std::sqrt(total), 1.0, 1e-5);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone) {
  util::Rng rng(1);
  nn::Linear lin("l", 2, 2, rng);
  auto params = lin.parameters();
  params[0]->grad.fill(0.01f);
  nn::clip_grad_norm(params, 100.0f);
  EXPECT_FLOAT_EQ(params[0]->grad[0], 0.01f);
}

}  // namespace
}  // namespace a3cs
