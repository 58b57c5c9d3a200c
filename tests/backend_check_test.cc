// Cross-backend validation: the kernels of the avx2 table must agree with
// the scalar ones across a shape/trans-flag/thread-count grid under the ULP
// tolerance policy of tensor/backend/check.h, and its conv forward and
// column gradient must equal fused row loops bit for bit at the
// co-search's real conv shapes — plus unit coverage for the checker utility
// itself (tolerance violations, NaN/Inf reporting, deterministic failure
// messages) and for ScopedBackend's resolution of A3CS_BACKEND.
//
// On hosts without AVX2+FMA the grid cases GTEST_SKIP; the checker-utility
// cases always run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "conv_shapes.h"
#include "tensor/backend/backend.h"
#include "tensor/backend/check.h"
#include "tensor/ops.h"
#include "util/config.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

namespace backend = tensor::backend;
using tensor::Shape;
using tensor::Tensor;

std::vector<float> random_vec(std::int64_t n, util::Rng& rng, double lo = -1.0,
                              double hi = 1.0) {
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

// ------------------------------------------- A3CS_BACKEND on first use --
// These cases must be the first backend use in their process, so they come
// first in the file; their ctest entries (tests/CMakeLists.txt) run each
// alone with A3CS_BACKEND set. Without that setting they skip.

TEST(ScopedBackendFirstUse, RestoresTheEnvBackend) {
  if (util::env_string("A3CS_BACKEND", "") != "avx2") {
    GTEST_SKIP() << "runs under A3CS_BACKEND=avx2";
  }
  if (backend::by_name("avx2") == nullptr) {
    GTEST_SKIP() << "host lacks AVX2+FMA; avx2 backend unavailable";
  }
  {
    backend::ScopedBackend use(backend::scalar_backend());
    EXPECT_STREQ(backend::active().name, "scalar");
  }
  EXPECT_STREQ(backend::active().name, "avx2");
}

TEST(ScopedBackendFirstUse, MalformedEnvThrows) {
  const std::string env = util::env_string("A3CS_BACKEND", "");
  if (env.empty() || env == "scalar" || env == "avx2" || env == "auto") {
    GTEST_SKIP() << "runs under a malformed A3CS_BACKEND";
  }
  EXPECT_THROW(backend::ScopedBackend use(backend::scalar_backend()),
               util::InputError);
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
    if (backend::by_name("avx2") == nullptr) {
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

TEST_F(BackendGrid, ByNameResolvesNames) {
  EXPECT_EQ(backend::by_name("sse9"), nullptr);
  EXPECT_EQ(backend::by_name(""), nullptr);
  EXPECT_EQ(backend::by_name("auto"), backend::avx2_backend());
  EXPECT_EQ(backend::by_name("avx2"), backend::avx2_backend());
  EXPECT_EQ(backend::by_name("scalar"), &backend::scalar_backend());
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
    backend::ScopedBackend use(*backend::by_name(name));
    std::vector<std::vector<float>> results;
    for (const int threads : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
      tensor::gemm_raw(a.data(), false, b.data(), false, c.data(), m, k, n);
      results.push_back(std::move(c));
    }
    EXPECT_EQ(results[0], results[1]) << name << " not thread-invariant";
  }
}

// Shard cuts of [0, total): the whole range, whole tiles (the layer's grain
// unit: 16 batch columns, 4 out-channels) and a ragged split that starts
// shards mid-tile.
std::vector<std::vector<int>> shard_cuts(int total, int tile) {
  std::vector<int> tiles;
  for (int j = 0; j < total; j += tile) tiles.push_back(j);
  tiles.push_back(total);
  std::vector<int> ragged = {0};
  for (const int cut : {3, 7, 23, 61}) {
    if (cut < total) ragged.push_back(cut);
  }
  ragged.push_back(total);
  return {{0, total}, tiles, ragged};
}

bool bit_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The avx2 conv contract, as row loops: forward is the bias, then
// std::fma(w, c, acc) for kk ascending; the column gradient is +0, then
// std::fma(w, g, acc) for oc ascending; both skip w == 0.
std::vector<float> fused_conv_forward(const std::vector<float>& weight,
                                      const std::vector<float>& bias,
                                      const std::vector<float>& cols, int n,
                                      int out_c, int ckk, int cps) {
  const int batch_cols = n * cps;
  std::vector<float> out(static_cast<std::size_t>(n) * out_c * cps);
  for (int j = 0; j < batch_cols; ++j) {
    for (int oc = 0; oc < out_c; ++oc) {
      float acc = bias[static_cast<std::size_t>(oc)];
      for (int kk = 0; kk < ckk; ++kk) {
        const float w = weight[static_cast<std::size_t>(oc) * ckk + kk];
        if (w == 0.0f) continue;
        acc = std::fma(w, cols[static_cast<std::size_t>(kk) * batch_cols + j],
                       acc);
      }
      out[(static_cast<std::size_t>(j / cps) * out_c + oc) * cps + j % cps] =
          acc;
    }
  }
  return out;
}

std::vector<float> fused_conv_colgrad(const std::vector<float>& grad_out,
                                      const std::vector<float>& weight, int n,
                                      int out_c, int ckk, int ohw) {
  const int batch_cols = n * ohw;
  std::vector<float> gc(static_cast<std::size_t>(ckk) * batch_cols);
  for (int j = 0; j < batch_cols; ++j) {
    for (int kk = 0; kk < ckk; ++kk) {
      float acc = 0.0f;
      for (int oc = 0; oc < out_c; ++oc) {
        const float w = weight[static_cast<std::size_t>(oc) * ckk + kk];
        if (w == 0.0f) continue;
        acc = std::fma(
            w,
            grad_out[(static_cast<std::size_t>(j / ohw) * out_c + oc) * ohw +
                     j % ohw],
            acc);
      }
      gc[static_cast<std::size_t>(kk) * batch_cols + j] = acc;
    }
  }
  return gc;
}

TEST_F(BackendGrid, ConvKernelsMatchScalarUnderTolerance) {
  // Drives the conv shard kernels directly at every conv geometry of the
  // search (plus out_c and batch widths off the tile grid), over whole,
  // tile-aligned and ragged shard cuts. Scalar vs avx2 must agree under the
  // tolerance for the forward and column gradient, and avx2 must equal the
  // fused row loops bit for bit; each backend's kernels, and the one weight
  // and bias gradient kernel, must be bitwise independent of the cuts. A
  // few zero weights exercise the zero-skip paths.
  std::vector<testing::ConvShape> shapes = testing::search_conv_shapes();
  shapes.push_back({2, 3, 5, 3, 1, 6, 7});
  shapes.push_back({3, 5, 6, 3, 1, 3, 3});
  shapes.push_back({1, 4, 7, 3, 1, 3, 3});
  const backend::Backend* backends[] = {&backend::scalar_backend(),
                                        backend::avx2_backend()};
  const char* what[] = {"conv-fwd", "conv-colgrad"};
  util::Rng rng(31);
  for (const testing::ConvShape& cs : shapes) {
    SCOPED_TRACE(cs.label());
    const int n = cs.n, out_c = cs.out_c, ckk = cs.ckk(), ohw = cs.cps();
    const int batch_cols = cs.batch_cols();
    auto weight = random_vec(static_cast<std::int64_t>(out_c) * ckk, rng);
    for (std::size_t i = 3; i < weight.size(); i += 11) weight[i] = 0.0f;
    const auto bias = random_vec(out_c, rng);
    const auto cols = random_vec(static_cast<std::int64_t>(ckk) * batch_cols,
                                 rng);
    const auto grad_out =
        random_vec(static_cast<std::int64_t>(n) * out_c * ohw, rng);
    const auto wg0 = random_vec(static_cast<std::int64_t>(out_c) * ckk, rng);
    const auto bg0 = random_vec(out_c, rng);

    // got[backend] = {out, gc} of the whole-range call.
    std::vector<std::vector<float>> got[2];
    const auto col_cuts = shard_cuts(batch_cols, 16);
    for (int bi = 0; bi < 2; ++bi) {
      const backend::Backend& be = *backends[bi];
      for (const std::vector<int>& cuts : col_cuts) {
        std::vector<float> out(static_cast<std::size_t>(n) * out_c * ohw);
        std::vector<float> gc(static_cast<std::size_t>(ckk) * batch_cols);
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
          be.conv_forward_cols(weight.data(), bias.data(), cols.data(),
                               out.data(), out_c, ckk, ohw, batch_cols,
                               cuts[i], cuts[i + 1]);
          be.conv_backward_colgrad(grad_out.data(), weight.data(), gc.data(),
                                   out_c, ckk, ohw, batch_cols, cuts[i],
                                   cuts[i + 1]);
        }
        if (got[bi].empty()) {
          got[bi] = {out, gc};
          continue;
        }
        const std::vector<float>* now[] = {&out, &gc};
        for (int k = 0; k < 2; ++k) {
          EXPECT_TRUE(bit_equal(got[bi][k], *now[k]))
              << be.name << " " << what[k] << " depends on the shard cuts ("
              << cuts.size() - 1 << " column shards)";
        }
      }
    }
    const backend::CheckOptions opts[] = {
        backend::tolerance_for_reduction(ckk),
        backend::tolerance_for_reduction(out_c)};
    for (int k = 0; k < 2; ++k) {
      const auto res = backend::compare_elementwise(
          got[0][k].data(), got[1][k].data(),
          static_cast<std::int64_t>(got[0][k].size()), opts[k], what[k]);
      EXPECT_TRUE(res.ok) << res.message;
    }
    EXPECT_TRUE(bit_equal(
        got[1][0], fused_conv_forward(weight, bias, cols, n, out_c, ckk, ohw)))
        << "avx2 conv-fwd differs from the fused row loop";
    EXPECT_TRUE(
        bit_equal(got[1][1], fused_conv_colgrad(grad_out, weight, n, out_c,
                                                ckk, ohw)))
        << "avx2 conv-colgrad differs from the fused row loop";

    // Weight/bias gradient (+= from nonzero state), sharded over
    // out-channels.
    std::vector<std::vector<float>> wgrad;
    for (const std::vector<int>& oc : shard_cuts(out_c, 4)) {
      std::vector<float> wg = wg0, bg = bg0;
      for (std::size_t i = 0; i + 1 < oc.size(); ++i) {
        backend::conv_backward_wgrad(grad_out.data(), cols.data(), wg.data(),
                                     bg.data(), n, out_c, ckk, ohw,
                                     batch_cols, oc[i], oc[i + 1]);
      }
      if (wgrad.empty()) {
        wgrad = {wg, bg};
        continue;
      }
      EXPECT_TRUE(bit_equal(wgrad[0], wg))
          << "conv-wgrad depends on the shard cuts";
      EXPECT_TRUE(bit_equal(wgrad[1], bg))
          << "conv-bgrad depends on the shard cuts";
    }
  }
}

TEST_F(BackendGrid, GemmBetaZeroNeverReadsC) {
  // C initialized with NaN must come out finite when beta == 0 on both
  // backends — a kernel that reads C before scaling would propagate NaN.
  util::Rng rng(5);
  const int m = 9, k = 17, n = 21;
  const auto a = random_vec(static_cast<std::int64_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::int64_t>(k) * n, rng);
  for (const char* name : {"scalar", "avx2"}) {
    backend::ScopedBackend use(*backend::by_name(name));
    std::vector<float> c(static_cast<std::size_t>(m) * n,
                         std::numeric_limits<float>::quiet_NaN());
    tensor::gemm_raw(a.data(), false, b.data(), false, c.data(), m, k, n,
                     1.0f, 0.0f);
    for (const float v : c) {
      ASSERT_TRUE(std::isfinite(v)) << name << " read uninitialized C";
    }
  }
}

}  // namespace
}  // namespace a3cs
