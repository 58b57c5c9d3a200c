#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

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
