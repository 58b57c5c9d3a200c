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

// Inputs that pin the kernels' special cases: a -0.0 bias on a channel
// whose weights are all zero (every product is +-0, so the output's sign
// depends on the exact add sequence), an inf pixel in a corner of one
// plane and in the far corner of another (only clamped border windows
// reach them), and go == 0 on every output cell whose window covers the
// first inf, so the go == 0 skip is what keeps that channel's weight
// gradient finite. Every third remaining go is 0 as well.
struct DwInputs {
  Tensor x, go;
};

DwInputs special_dw_inputs(nn::DepthwiseConv2d& dw, const DwParam& p,
                           util::Rng& rng) {
  const int pad = p.k / 2;
  auto params = dw.parameters();
  for (std::int64_t i = 0; i < params[1]->value.numel(); ++i) {
    params[1]->value[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
  }
  const int zero_c = p.c / 2;
  params[1]->value[zero_c] = -0.0f;
  for (int t = 0; t < p.k * p.k; ++t) {
    params[0]->value[static_cast<std::int64_t>(zero_c) * p.k * p.k + t] = 0.0f;
  }
  DwInputs in;
  in.x = random_tensor(Shape::nchw(p.n, p.c, p.h, p.w), rng);
  const auto g = tensor::ConvGeometry::make(in.x.shape(), p.k, p.k, p.stride,
                                            pad);
  in.go = random_tensor(Shape::nchw(p.n, p.c, g.oh, g.ow), rng);
  for (std::int64_t i = 0; i < in.go.numel(); i += 3) in.go[i] = 0.0f;
  const float inf = std::numeric_limits<float>::infinity();
  const int inf_n = p.n - 1;
  const int inf_c = p.c - 1;
  in.x.at4(inf_n, inf_c, 0, 0) = inf;
  in.x.at4(0, 0, p.h - 1, p.w - 1) = -inf;
  for (int oy = 0; oy < g.oh; ++oy) {
    for (int ox = 0; ox < g.ow; ++ox) {
      if (oy * p.stride - pad <= 0 && ox * p.stride - pad <= 0) {
        in.go.at4(inf_n, inf_c, oy, ox) = 0.0f;
      }
    }
  }
  return in;
}

// The scalar depthwise kernels against the bounds-checked loops on one
// geometry: through the module at 1-4 threads (forward, then two
// accumulating backwards), and called directly on ranges cut inside the
// lane groups, where the kernels fall back to single planes and channels.
void expect_scalar_dw_bit_exact(const DwParam& p) {
  const int pad = p.k / 2;
  const std::string where = "n" + std::to_string(p.n) + " c" +
                            std::to_string(p.c) + " k" + std::to_string(p.k) +
                            " s" + std::to_string(p.stride) + " " +
                            std::to_string(p.h) + "x" + std::to_string(p.w);
  util::Rng rng(106);
  nn::DepthwiseConv2d dw("dw", p.c, p.k, p.stride, pad, rng);
  const DwInputs in = special_dw_inputs(dw, p, rng);
  auto params = dw.parameters();
  const Tensor& weight = params[0]->value;
  const Tensor& bias = params[1]->value;

  const Tensor ref_out =
      reference_dw_forward(in.x, weight, bias, p.k, p.stride, pad);
  Tensor ref_wg(weight.shape()), ref_bg(bias.shape());
  const Tensor ref_gi1 = reference_dw_backward(in.x, in.go, weight, ref_wg,
                                               ref_bg, p.k, p.stride, pad);
  const Tensor ref_wg1 = ref_wg, ref_bg1 = ref_bg;
  const Tensor ref_gi = reference_dw_backward(in.x, in.go, weight, ref_wg,
                                              ref_bg, p.k, p.stride, pad);

  tensor::backend::ScopedBackend scalar(tensor::backend::scalar_backend());
  for (const int threads : {1, 2, 3, 4}) {
    util::ThreadPool::set_global_threads(threads);
    const auto got = run_dw(dw, in.x, in.go);
    EXPECT_TRUE(bit_equal(got[0], ref_out)) << where << " forward, t=" << threads;
    EXPECT_TRUE(bit_equal(got[1], ref_gi)) << where << " grad_input, t=" << threads;
    EXPECT_TRUE(bit_equal(got[2], ref_wg)) << where << " weight grad, t=" << threads;
    EXPECT_TRUE(bit_equal(got[3], ref_bg)) << where << " bias grad, t=" << threads;
  }
  util::ThreadPool::set_global_threads(1);

  // Ranges cut at 3 and 11: inside the first lane group, and (for c >= 12)
  // inside the second.
  const auto g =
      tensor::ConvGeometry::make(in.x.shape(), p.k, p.k, p.stride, pad);
  const auto cuts = [](std::int64_t end) {
    std::vector<std::int64_t> at = {0};
    for (const std::int64_t c : {3, 11}) {
      if (c < end) at.push_back(c);
    }
    at.push_back(end);
    return at;
  };
  Tensor out(ref_out.shape());
  const std::vector<std::int64_t> planes = cuts(static_cast<std::int64_t>(p.n) * p.c);
  for (std::size_t i = 0; i + 1 < planes.size(); ++i) {
    tensor::backend::dw_forward_planes(in.x.data(), weight.data(),
                                       bias.data(), g, out.data(), planes[i],
                                       planes[i + 1]);
  }
  EXPECT_TRUE(bit_equal(out, ref_out)) << where << " forward, cut ranges";
  Tensor gi(in.x.shape()), wg(weight.shape()), bg(bias.shape());
  const std::vector<std::int64_t> channels = cuts(p.c);
  for (std::size_t i = 0; i + 1 < channels.size(); ++i) {
    tensor::backend::dw_backward_channels(
        in.go.data(), in.x.data(), weight.data(), g, gi.data(), wg.data(),
        bg.data(), static_cast<int>(channels[i]),
        static_cast<int>(channels[i + 1]));
  }
  EXPECT_TRUE(bit_equal(gi, ref_gi1)) << where << " grad_input, cut ranges";
  EXPECT_TRUE(bit_equal(wg, ref_wg1)) << where << " weight grad, cut ranges";
  EXPECT_TRUE(bit_equal(bg, ref_bg1)) << where << " bias grad, cut ranges";
}

TEST_P(DepthwiseGradTest, ScalarBackendBitExactWithBoundsCheckedLoop) {
  expect_scalar_dw_bit_exact(GetParam());
}

// The search space's depthwise shapes (8/24/40 channels on 6x6, 48/80 on
// 3x3, 96/160 on 2x2, expansions of 8/16/32) plus 7x7 and the channel tails
// 5/6/7/9 that no lane group covers whole, at the eval (1), rollout (8)
// and update (40) batches, k3 and k5, stride 1 and 2; then every depthwise
// conv a 6-cell co-search on the 12x12 arcade frames runs (each cell's
// input geometry crossed with the inverted-residual candidates) at the
// rollout and update batches, where the list lacks it. A fixture of its
// own: finite differences at these sizes would take minutes.
std::vector<DwParam> search_dw_shapes() {
  struct MapChannels {
    int hw;
    std::vector<int> channels;
  };
  const MapChannels maps[] = {{6, {8, 24, 40, 5, 9}},
                              {3, {48, 80, 6}},
                              {2, {96, 160, 7}},
                              {7, {40, 9}}};
  std::vector<DwParam> shapes;
  for (const MapChannels& m : maps) {
    for (const int c : m.channels) {
      for (const int n : {1, 8, 40}) {
        for (const int k : {3, 5}) {
          for (const int stride : {1, 2}) {
            shapes.push_back(DwParam{n, c, k, stride, m.hw, m.hw});
          }
        }
      }
    }
  }
  nas::SearchSpaceConfig cfg;
  cfg.num_cells = 6;
  const auto space = nas::space_geometry(nn::ObsSpec{3, 12, 12}, cfg);
  for (const nas::CellGeometry& cell : space.cells) {
    for (const nas::CandidateOp& op : nas::candidate_ops()) {
      if (op.expansion == 0) continue;
      for (const int n : {8, 40}) {
        const DwParam p{n,           cell.in_c * op.expansion, op.kernel,
                        cell.stride, cell.in_h,                cell.in_w};
        const auto same = [&](const DwParam& o) {
          return o.n == p.n && o.c == p.c && o.k == p.k &&
                 o.stride == p.stride && o.h == p.h && o.w == p.w;
        };
        if (std::none_of(shapes.begin(), shapes.end(), same)) {
          shapes.push_back(p);
        }
      }
    }
  }
  return shapes;
}

class DepthwiseSearchShapeTest : public ::testing::TestWithParam<DwParam> {};

TEST_P(DepthwiseSearchShapeTest, ScalarBackendBitExactWithBoundsCheckedLoop) {
  expect_scalar_dw_bit_exact(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    SearchShapes, DepthwiseSearchShapeTest,
    ::testing::ValuesIn(search_dw_shapes()),
    [](const ::testing::TestParamInfo<DwParam>& info) {
      const DwParam& p = info.param;
      return "n" + std::to_string(p.n) + "_c" + std::to_string(p.c) + "_k" +
             std::to_string(p.k) + "_s" + std::to_string(p.stride) + "_" +
             std::to_string(p.h) + "x" + std::to_string(p.w);
    });

TEST(DepthwiseConv2d, BitIdenticalAtOneAndFourThreads) {
  struct Case {
    int n, c, k, stride, h, w;
  };
  const Case cases[] = {{8, 40, 3, 1, 6, 6}, {5, 48, 5, 2, 3, 3},
                        {3, 96, 5, 1, 2, 2}, {6, 40, 3, 2, 7, 7}};
  for (const Case& cs : cases) {
    util::Rng rng(107);
    nn::DepthwiseConv2d dw("dw", cs.c, cs.k, cs.stride, cs.k / 2, rng);
    const Tensor x = random_tensor(Shape::nchw(cs.n, cs.c, cs.h, cs.w), rng);
    const auto g = tensor::ConvGeometry::make(x.shape(), cs.k, cs.k,
                                              cs.stride, cs.k / 2);
    const Tensor go = random_tensor(Shape::nchw(cs.n, cs.c, g.oh, g.ow), rng);
    util::ThreadPool::set_global_threads(1);
    const auto serial = run_dw(dw, x, go);
    util::ThreadPool::set_global_threads(4);
    const auto sharded = run_dw(dw, x, go);
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(bit_equal(serial[i], sharded[i]))
          << "output " << i << " differs, case k" << cs.k << " s"
          << cs.stride << " " << cs.h << "x" << cs.w;
    }
  }
  util::ThreadPool::set_global_threads(1);
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
