// Cross-backend validation: every kernel of the avx2 backend must agree
// with the scalar reference across a shape/stride/trans-flag/thread-count
// grid (the depthwise kernels at the co-search's real shapes) under the ULP
// tolerance policy of tensor/backend/check.h — plus unit
// coverage for the checker utility itself (tolerance violations, NaN/Inf
// reporting, deterministic failure messages).
//
// On hosts without AVX2+FMA the grid cases GTEST_SKIP; the checker-utility
// cases always run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "nas/arch.h"
#include "nas/ops.h"
#include "tensor/backend/backend.h"
#include "tensor/backend/check.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

namespace backend = tensor::backend;
using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;

std::vector<float> random_vec(std::int64_t n, util::Rng& rng, double lo = -1.0,
                              double hi = 1.0) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// ------------------------------------------------- checker utility itself --

TEST(UlpDistance, CountsRepresentableSteps) {
  EXPECT_EQ(backend::ulp_distance(1.0f, 1.0f), 0);
  EXPECT_EQ(backend::ulp_distance(0.0f, -0.0f), 0);
  const float next = std::nextafter(1.0f, 2.0f);
  EXPECT_EQ(backend::ulp_distance(1.0f, next), 1);
  EXPECT_EQ(backend::ulp_distance(next, 1.0f), 1);
  // Crossing zero counts the values on both sides.
  const float tiny = std::nextafter(0.0f, 1.0f);
  EXPECT_EQ(backend::ulp_distance(tiny, -tiny), 2);
}

TEST(UlpDistance, NanAndMismatchedInfAreMaximal) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(backend::ulp_distance(nan, 1.0f), kMax);
  EXPECT_EQ(backend::ulp_distance(1.0f, nan), kMax);
  EXPECT_EQ(backend::ulp_distance(nan, nan), kMax);
  EXPECT_EQ(backend::ulp_distance(inf, 1.0f), kMax);
  EXPECT_EQ(backend::ulp_distance(inf, -inf), kMax);
  EXPECT_EQ(backend::ulp_distance(inf, inf), 0);  // equal infinities match
}

TEST(Checker, DetectsToleranceViolationAtFirstIndex) {
  backend::CheckOptions opt;
  opt.max_ulps = 4;
  opt.abs_tol = 0.0f;
  std::vector<float> expected{1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> actual = expected;
  actual[1] = 2.5f;   // far out of tolerance
  actual[3] = 4.25f;  // also out
  const auto res = backend::compare_elementwise(expected.data(), actual.data(),
                                                4, opt, "gemm 2x2x2");
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.mismatches, 2);
  // The message is deterministic: label, first offending index, both values.
  EXPECT_NE(res.message.find("gemm 2x2x2"), std::string::npos);
  EXPECT_NE(res.message.find("first at [1]"), std::string::npos);
  EXPECT_NE(res.message.find("expected=2"), std::string::npos);
  EXPECT_NE(res.message.find("actual=2.5"), std::string::npos);
  EXPECT_NE(res.message.find("2/4 elements"), std::string::npos);
  // Byte-identical on a second run.
  const auto res2 = backend::compare_elementwise(expected.data(),
                                                 actual.data(), 4, opt,
                                                 "gemm 2x2x2");
  EXPECT_EQ(res.message, res2.message);
}

TEST(Checker, WithinUlpToleranceIsOk) {
  backend::CheckOptions opt;
  opt.max_ulps = 4;
  opt.abs_tol = 0.0f;
  std::vector<float> expected{1.0f, -3.5f, 100.0f};
  std::vector<float> actual{std::nextafter(1.0f, 2.0f),
                            std::nextafter(-3.5f, 0.0f), 100.0f};
  const auto res = backend::compare_elementwise(expected.data(), actual.data(),
                                                3, opt, "x");
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.mismatches, 0);
  EXPECT_TRUE(res.message.empty());
}

TEST(Checker, AbsToleranceRescuesCancellationNearZero) {
  // 1e-30 vs -1e-30 is a huge ULP distance but a negligible absolute error.
  backend::CheckOptions opt;
  opt.max_ulps = 4;
  opt.abs_tol = 1e-6f;
  const float a = 1e-30f, b = -1e-30f;
  EXPECT_GT(backend::ulp_distance(a, b), 1000000);
  const auto res = backend::compare_elementwise(&a, &b, 1, opt, "x");
  EXPECT_TRUE(res.ok);
}

TEST(Checker, NanMismatchIsReported) {
  backend::CheckOptions opt;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> expected{1.0f, nan};
  std::vector<float> actual{nan, nan};
  // Both-NaN (index 1) matches; NaN-vs-number (index 0) must fail even
  // though |e - a| is NaN (never <= abs_tol).
  const auto res = backend::compare_elementwise(expected.data(), actual.data(),
                                                2, opt, "conv 1x2");
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.mismatches, 1);
  EXPECT_NE(res.message.find("first at [0]"), std::string::npos);
  EXPECT_NE(res.message.find("nan/inf-mismatch"), std::string::npos);
}

TEST(Checker, OppositeInfinitiesMismatch) {
  backend::CheckOptions opt;
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> expected{inf, -inf};
  std::vector<float> actual{inf, inf};
  const auto res = backend::compare_elementwise(expected.data(), actual.data(),
                                                2, opt, "x");
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.mismatches, 1);
  EXPECT_NE(res.message.find("first at [1]"), std::string::npos);
}

TEST(Checker, TensorShapeMismatchIsItsOwnError) {
  Tensor a(Shape::mat(2, 3));
  Tensor b(Shape::mat(3, 2));
  const auto res =
      backend::compare_tensors(a, b, backend::CheckOptions{}, "gemm");
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.message.find("shape mismatch"), std::string::npos);
}

TEST(Checker, ToleranceScalesWithReductionLength) {
  const auto small = backend::tolerance_for_reduction(4);
  const auto big = backend::tolerance_for_reduction(4096);
  EXPECT_LT(small.max_ulps, big.max_ulps);
  EXPECT_LT(small.abs_tol, big.abs_tol);
  EXPECT_GT(small.max_ulps, 0);
}

// ------------------------------------------------------ cross-backend grid --

class BackendGrid : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!backend::cpu_supports_avx2()) {
      GTEST_SKIP() << "host lacks AVX2+FMA; avx2 backend unavailable";
    }
  }
  void TearDown() override { util::ThreadPool::set_global_threads(1); }
};

TEST_F(BackendGrid, AvailableNamesListsBoth) {
  const auto names = backend::available_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "scalar");
  EXPECT_EQ(names[1], "avx2");
  EXPECT_STREQ(backend::avx2_backend()->name, "avx2");
}

TEST_F(BackendGrid, SelectRejectsUnknownNames) {
  EXPECT_FALSE(backend::select("sse9"));
  EXPECT_TRUE(backend::select("auto"));
  EXPECT_STREQ(backend::active().name, "avx2");
  EXPECT_TRUE(backend::select("scalar"));
  EXPECT_STREQ(backend::active().name, "scalar");
}

TEST_F(BackendGrid, GemmMatchesScalarAcrossShapeTransAlphaBetaThreads) {
  struct ShapeCase {
    int m, k, n;
  };
  // Full tiles, edge tiles in every dimension, k=1 reductions, tall/wide.
  const ShapeCase shapes[] = {{1, 1, 1},   {6, 8, 16},  {7, 17, 33},
                              {5, 3, 2},   {16, 64, 16}, {13, 100, 29},
                              {64, 256, 64}};
  const float alpha_beta[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -0.25f}};
  util::Rng rng(20260807);
  for (const auto& sc : shapes) {
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        const auto a = random_vec(static_cast<std::int64_t>(sc.m) * sc.k, rng);
        const auto b = random_vec(static_cast<std::int64_t>(sc.k) * sc.n, rng);
        const auto c0 =
            random_vec(static_cast<std::int64_t>(sc.m) * sc.n, rng);
        for (const auto& ab : alpha_beta) {
          for (const int threads : {1, 4}) {
            util::ThreadPool::set_global_threads(threads);
            std::vector<float> c_ref = c0;
            {
              backend::ScopedBackend use(backend::scalar_backend());
              tensor::gemm_raw(a.data(), trans_a, b.data(), trans_b,
                               c_ref.data(), sc.m, sc.k, sc.n, ab[0], ab[1]);
            }
            std::vector<float> c_avx = c0;
            {
              backend::ScopedBackend use(*backend::avx2_backend());
              tensor::gemm_raw(a.data(), trans_a, b.data(), trans_b,
                               c_avx.data(), sc.m, sc.k, sc.n, ab[0], ab[1]);
            }
            const auto opt = backend::tolerance_for_reduction(sc.k);
            const std::string label =
                "gemm " + std::to_string(sc.m) + "x" + std::to_string(sc.k) +
                "x" + std::to_string(sc.n) + " tA=" + std::to_string(trans_a) +
                " tB=" + std::to_string(trans_b) +
                " alpha=" + std::to_string(ab[0]) +
                " beta=" + std::to_string(ab[1]) +
                " threads=" + std::to_string(threads);
            const auto res = backend::compare_elementwise(
                c_ref.data(), c_avx.data(),
                static_cast<std::int64_t>(sc.m) * sc.n, opt, label);
            EXPECT_TRUE(res.ok) << res.message;
          }
        }
      }
    }
  }
}

TEST_F(BackendGrid, GemmPerBackendResultsThreadCountInvariant) {
  // Per-backend determinism: for EACH backend the result must be
  // bit-identical at 1 and 4 threads (sharding never changes numerics).
  util::Rng rng(99);
  const int m = 37, k = 129, n = 53;
  const auto a = random_vec(static_cast<std::int64_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::int64_t>(k) * n, rng);
  for (const char* name : {"scalar", "avx2"}) {
    ASSERT_TRUE(backend::select(name));
    std::vector<std::vector<float>> results;
    for (const int threads : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
      tensor::gemm_raw(a.data(), false, b.data(), false, c.data(), m, k, n);
      results.push_back(std::move(c));
    }
    EXPECT_EQ(results[0], results[1]) << name << " not thread-invariant";
  }
  backend::select("scalar");
}

TEST_F(BackendGrid, Im2colAndCol2imBitExactAcrossStridePadGrid) {
  // Pure data movement (im2col) and order-preserving accumulation (col2im)
  // must be BIT-exact across backends: max_ulps = 0.
  struct GeomCase {
    int n, c, h, w, kh, stride, pad;
  };
  const GeomCase geoms[] = {{2, 3, 12, 12, 3, 1, 1}, {1, 1, 5, 5, 3, 2, 0},
                            {2, 2, 8, 8, 1, 1, 0},   {1, 3, 9, 7, 5, 1, 2},
                            {3, 1, 6, 6, 3, 2, 1},   {1, 2, 4, 4, 4, 1, 3}};
  backend::CheckOptions exact;
  exact.max_ulps = 0;
  exact.abs_tol = 0.0f;
  util::Rng rng(7);
  for (const auto& gc : geoms) {
    for (const int threads : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      Tensor input(Shape::nchw(gc.n, gc.c, gc.h, gc.w));
      for (std::int64_t i = 0; i < input.numel(); ++i) {
        input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      }
      const auto g = ConvGeometry::make(input.shape(), gc.kh, gc.kh,
                                        gc.stride, gc.pad);
      const Shape cols_shape =
          Shape::mat(g.c * g.kh * g.kw, g.n * g.oh * g.ow);
      const std::string label = "geom " + std::to_string(gc.n) + "x" +
                                std::to_string(gc.c) + "x" +
                                std::to_string(gc.h) + "x" +
                                std::to_string(gc.w) + " k" +
                                std::to_string(gc.kh) + " s" +
                                std::to_string(gc.stride) + " p" +
                                std::to_string(gc.pad) + " t" +
                                std::to_string(threads);

      Tensor cols_ref(cols_shape), cols_avx(cols_shape);
      {
        backend::ScopedBackend use(backend::scalar_backend());
        tensor::im2col(input, g, cols_ref);
      }
      {
        backend::ScopedBackend use(*backend::avx2_backend());
        tensor::im2col(input, g, cols_avx);
      }
      auto res = backend::compare_tensors(cols_ref, cols_avx, exact,
                                          "im2col " + label);
      EXPECT_TRUE(res.ok) << res.message;

      Tensor grad_ref(input.shape()), grad_avx(input.shape());
      {
        backend::ScopedBackend use(backend::scalar_backend());
        tensor::col2im(cols_ref, g, grad_ref);
      }
      {
        backend::ScopedBackend use(*backend::avx2_backend());
        tensor::col2im(cols_ref, g, grad_avx);
      }
      res = backend::compare_tensors(grad_ref, grad_avx, exact,
                                     "col2im " + label);
      EXPECT_TRUE(res.ok) << res.message;
    }
  }
}

TEST_F(BackendGrid, ConvKernelsMatchScalarUnderTolerance) {
  // Drives the three conv shard kernels directly over the full task ranges,
  // with a few zero weights to exercise the zero-skip paths.
  const int n = 2, out_c = 5, in_c = 3, kh = 3, oh = 6, ow = 7;
  const int ckk = in_c * kh * kh;
  const int ohw = oh * ow;
  const int batch_cols = n * ohw;
  util::Rng rng(31);
  auto weight = random_vec(static_cast<std::int64_t>(out_c) * ckk, rng);
  weight[3] = 0.0f;
  weight[ckk + 11] = 0.0f;
  const auto bias = random_vec(out_c, rng);
  const auto cols = random_vec(static_cast<std::int64_t>(ckk) * batch_cols,
                               rng);
  const auto grad_out = random_vec(static_cast<std::int64_t>(n) * out_c * ohw,
                                   rng);
  const backend::Backend& sc = backend::scalar_backend();
  const backend::Backend& av = *backend::avx2_backend();

  // Forward.
  std::vector<float> out_ref(static_cast<std::size_t>(n) * out_c * ohw);
  std::vector<float> out_avx(out_ref.size());
  sc.conv_forward_tasks(weight.data(), bias.data(), cols.data(),
                        out_ref.data(), out_c, ckk, ohw, batch_cols, 0,
                        static_cast<std::int64_t>(n) * out_c);
  av.conv_forward_tasks(weight.data(), bias.data(), cols.data(),
                        out_avx.data(), out_c, ckk, ohw, batch_cols, 0,
                        static_cast<std::int64_t>(n) * out_c);
  auto res = backend::compare_elementwise(
      out_ref.data(), out_avx.data(),
      static_cast<std::int64_t>(out_ref.size()),
      backend::tolerance_for_reduction(ckk), "conv-fwd");
  EXPECT_TRUE(res.ok) << res.message;

  // Weight/bias gradient (+= semantics: start from identical nonzero state).
  const auto wg0 = random_vec(static_cast<std::int64_t>(out_c) * ckk, rng);
  const auto bg0 = random_vec(out_c, rng);
  std::vector<float> wg_ref = wg0, wg_avx = wg0;
  std::vector<float> bg_ref = bg0, bg_avx = bg0;
  sc.conv_backward_wgrad(grad_out.data(), cols.data(), wg_ref.data(),
                         bg_ref.data(), n, out_c, ckk, ohw, batch_cols, 0,
                         out_c);
  av.conv_backward_wgrad(grad_out.data(), cols.data(), wg_avx.data(),
                         bg_avx.data(), n, out_c, ckk, ohw, batch_cols, 0,
                         out_c);
  const auto wopt = backend::tolerance_for_reduction(n * ohw);
  res = backend::compare_elementwise(wg_ref.data(), wg_avx.data(),
                                     static_cast<std::int64_t>(wg_ref.size()),
                                     wopt, "conv-wgrad");
  EXPECT_TRUE(res.ok) << res.message;
  res = backend::compare_elementwise(bg_ref.data(), bg_avx.data(), out_c,
                                     wopt, "conv-bgrad");
  EXPECT_TRUE(res.ok) << res.message;

  // Column gradient (overwrite semantics).
  std::vector<float> gc_ref(static_cast<std::size_t>(ckk) * batch_cols);
  std::vector<float> gc_avx(gc_ref.size());
  sc.conv_backward_colgrad(grad_out.data(), weight.data(), gc_ref.data(),
                           out_c, ckk, ohw, batch_cols, 0, n);
  av.conv_backward_colgrad(grad_out.data(), weight.data(), gc_avx.data(),
                           out_c, ckk, ohw, batch_cols, 0, n);
  res = backend::compare_elementwise(gc_ref.data(), gc_avx.data(),
                                     static_cast<std::int64_t>(gc_ref.size()),
                                     backend::tolerance_for_reduction(out_c),
                                     "conv-colgrad");
  EXPECT_TRUE(res.ok) << res.message;
}

TEST_F(BackendGrid, DepthwiseKernelsMatchScalarAtSearchShapes) {
  // Every depthwise conv a 6-cell co-search on the 12x12 arcade frames runs:
  // each cell's input geometry (6x6, 3x3, 2x2; strides 1 and 2) crossed with
  // the inverted-residual candidates (k3/k5 x expansion 1/3/5), at the
  // rollout batch (8 envs) and the 5-step update batch (40).
  nas::SearchSpaceConfig cfg;
  cfg.num_cells = 6;
  const auto space = nas::space_geometry(nn::ObsSpec{3, 12, 12}, cfg);
  const backend::Backend& sc = backend::scalar_backend();
  const backend::Backend& av = *backend::avx2_backend();
  util::Rng rng(41);
  int cases = 0;
  for (const nas::CellGeometry& cell : space.cells) {
    for (const nas::CandidateOp& op : nas::candidate_ops()) {
      if (op.expansion == 0) continue;
      for (const int n : {8, 40}) {
        const int ch = cell.in_c * op.expansion;
        const auto g = ConvGeometry::make(
            Shape::nchw(n, ch, cell.in_h, cell.in_w), op.kernel, op.kernel,
            cell.stride, op.kernel / 2);
        const int taps = op.kernel * op.kernel;
        const std::int64_t in_size =
            static_cast<std::int64_t>(n) * ch * g.h * g.w;
        const std::int64_t out_size =
            static_cast<std::int64_t>(n) * ch * g.oh * g.ow;
        const auto x = random_vec(in_size, rng);
        const auto weight = random_vec(static_cast<std::int64_t>(ch) * taps,
                                       rng);
        const auto bias = random_vec(ch, rng);
        const auto grad_out = random_vec(out_size, rng);
        const std::string label = op.id + " " + std::to_string(n) + "x" +
                                  std::to_string(ch) + "x" +
                                  std::to_string(g.h) + "x" +
                                  std::to_string(g.w) + " s" +
                                  std::to_string(g.stride);

        std::vector<float> out_ref(static_cast<std::size_t>(out_size));
        std::vector<float> out_avx(out_ref.size());
        sc.dw_forward_planes(x.data(), weight.data(), bias.data(), g,
                             out_ref.data(), 0,
                             static_cast<std::int64_t>(n) * ch);
        av.dw_forward_planes(x.data(), weight.data(), bias.data(), g,
                             out_avx.data(), 0,
                             static_cast<std::int64_t>(n) * ch);
        const auto tap_tol = backend::tolerance_for_reduction(taps);
        auto res = backend::compare_elementwise(
            out_ref.data(), out_avx.data(), out_size, tap_tol,
            "dw-fwd " + label);
        EXPECT_TRUE(res.ok) << res.message;

        // Weight/bias grads accumulate (+=) into identical nonzero state;
        // grad_input starts zeroed as the module hands it over.
        const auto wg0 = random_vec(static_cast<std::int64_t>(ch) * taps, rng);
        const auto bg0 = random_vec(ch, rng);
        std::vector<float> wg_ref = wg0, wg_avx = wg0;
        std::vector<float> bg_ref = bg0, bg_avx = bg0;
        std::vector<float> gi_ref(static_cast<std::size_t>(in_size), 0.0f);
        std::vector<float> gi_avx(gi_ref.size(), 0.0f);
        sc.dw_backward_channels(grad_out.data(), x.data(), weight.data(), g,
                                gi_ref.data(), wg_ref.data(), bg_ref.data(),
                                0, ch);
        av.dw_backward_channels(grad_out.data(), x.data(), weight.data(), g,
                                gi_avx.data(), wg_avx.data(), bg_avx.data(),
                                0, ch);
        res = backend::compare_elementwise(gi_ref.data(), gi_avx.data(),
                                           in_size, tap_tol,
                                           "dw-bwd input " + label);
        EXPECT_TRUE(res.ok) << res.message;
        const auto sum_tol = backend::tolerance_for_reduction(n * g.oh * g.ow);
        res = backend::compare_elementwise(
            wg_ref.data(), wg_avx.data(),
            static_cast<std::int64_t>(wg_ref.size()), sum_tol,
            "dw-bwd weight " + label);
        EXPECT_TRUE(res.ok) << res.message;
        res = backend::compare_elementwise(bg_ref.data(), bg_avx.data(), ch,
                                           sum_tol, "dw-bwd bias " + label);
        EXPECT_TRUE(res.ok) << res.message;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 6 * 6 * 2);
}

TEST_F(BackendGrid, GemmBetaZeroNeverReadsC) {
  // C initialized with NaN must come out finite when beta == 0 on both
  // backends — a kernel that reads C before scaling would propagate NaN.
  util::Rng rng(5);
  const int m = 9, k = 17, n = 21;
  const auto a = random_vec(static_cast<std::int64_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::int64_t>(k) * n, rng);
  for (const char* name : {"scalar", "avx2"}) {
    ASSERT_TRUE(backend::select(name));
    std::vector<float> c(static_cast<std::size_t>(m) * n,
                         std::numeric_limits<float>::quiet_NaN());
    tensor::gemm_raw(a.data(), false, b.data(), false, c.data(), m, k, n,
                     1.0f, 0.0f);
    for (const float v : c) {
      ASSERT_TRUE(std::isfinite(v)) << name << " read uninitialized C";
    }
  }
  backend::select("scalar");
}

}  // namespace
}  // namespace a3cs
