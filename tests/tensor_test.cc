#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

using tensor::ConvGeometry;
using tensor::Shape;
using tensor::Tensor;

// --------------------------------------------------------------- Shape ----

TEST(Shape, BasicProperties) {
  Shape s({2, 3, 4});
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[1], 3);
  EXPECT_EQ(s[2], 4);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.to_string(), "(2, 3, 4)");
}

TEST(Shape, ScalarHasNumelOne) {
  EXPECT_EQ(Shape::scalar().numel(), 1);
  EXPECT_EQ(Shape::scalar().rank(), 0);
}

TEST(Shape, Equality) {
  EXPECT_EQ(Shape::mat(2, 3), Shape({2, 3}));
  EXPECT_NE(Shape::mat(2, 3), Shape({3, 2}));
  EXPECT_NE(Shape::mat(2, 3), Shape({2, 3, 1}));
}

TEST(Shape, RejectsNegativeDim) {
  EXPECT_THROW(Shape({-1, 2}), std::runtime_error);
}

TEST(Shape, DimIndexChecked) {
  Shape s({2, 3});
  EXPECT_THROW(s.dim(2), std::runtime_error);
  EXPECT_THROW(s.dim(-1), std::runtime_error);
}

// -------------------------------------------------------------- Tensor ----

TEST(Tensor, ConstructAndFill) {
  Tensor t(Shape::mat(3, 4), 2.5f);
  EXPECT_EQ(t.numel(), 12);
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(t[i], 2.5f);
  t.zero();
  EXPECT_FLOAT_EQ(t.sum(), 0.0f);
}

TEST(Tensor, At2At4Indexing) {
  Tensor m(Shape::mat(2, 3));
  m.at2(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(m[5], 7.0f);

  Tensor img(Shape::nchw(2, 3, 4, 5));
  img.at4(1, 2, 3, 4) = 9.0f;
  EXPECT_FLOAT_EQ(img[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ArithmeticOps) {
  Tensor a(Shape::vec(3), {1, 2, 3});
  Tensor b(Shape::vec(3), {4, 5, 6});
  Tensor c = a + b;
  EXPECT_FLOAT_EQ(c[0], 5);
  EXPECT_FLOAT_EQ(c[2], 9);
  c -= a;
  EXPECT_FLOAT_EQ(c[1], 5);
  c *= 2.0f;
  EXPECT_FLOAT_EQ(c[2], 12);
  c.axpy(-1.0f, b);
  EXPECT_FLOAT_EQ(c[0], 4);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a(Shape::vec(3));
  Tensor b(Shape::vec(4));
  EXPECT_THROW(a += b, std::runtime_error);
  EXPECT_THROW(a.dot(b), std::runtime_error);
  EXPECT_THROW(a.axpy(1.0f, b), std::runtime_error);
}

TEST(Tensor, Reductions) {
  Tensor t(Shape::vec(4), {-3, 1, 2, -1});
  EXPECT_FLOAT_EQ(t.sum(), -1.0f);
  EXPECT_FLOAT_EQ(t.max(), 2.0f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 3.0f);
  EXPECT_NEAR(t.norm(), std::sqrt(9.0f + 1 + 4 + 1), 1e-6);
}

TEST(Tensor, DotProduct) {
  Tensor a(Shape::vec(3), {1, 2, 3});
  Tensor b(Shape::vec(3), {4, -5, 6});
  EXPECT_FLOAT_EQ(a.dot(b), 4 - 10 + 18);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t(Shape::mat(2, 6), {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  Tensor r = t.reshaped(Shape::nchw(1, 3, 2, 2));
  EXPECT_EQ(r.shape(), Shape::nchw(1, 3, 2, 2));
  EXPECT_FLOAT_EQ(r[7], 7.0f);
  EXPECT_THROW(t.reshaped(Shape::vec(5)), std::runtime_error);
}

TEST(Tensor, DataSizeMustMatchShape) {
  EXPECT_THROW(Tensor(Shape::vec(3), {1.0f, 2.0f}), std::runtime_error);
}

// ---------------------------------------------------------------- GEMM ----

// Reference implementation for validation.
void ref_gemm(const Tensor& a, bool ta, const Tensor& b, bool tb, Tensor& c,
              float alpha, float beta) {
  const int m = c.shape()[0], n = c.shape()[1];
  const int k = ta ? a.shape()[0] : a.shape()[1];
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const float av = ta ? a.at2(kk, i) : a.at2(i, kk);
        const float bv = tb ? b.at2(j, kk) : b.at2(kk, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at2(i, j) = alpha * static_cast<float>(acc) + beta * c.at2(i, j);
    }
  }
}

struct GemmCase {
  int m, k, n;
  bool ta, tb;
  float alpha, beta;
};

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesReference) {
  const GemmCase p = GetParam();
  util::Rng rng(77);
  Tensor a(p.ta ? Shape::mat(p.k, p.m) : Shape::mat(p.m, p.k));
  Tensor b(p.tb ? Shape::mat(p.n, p.k) : Shape::mat(p.k, p.n));
  for (std::int64_t i = 0; i < a.numel(); ++i) a[i] = static_cast<float>(rng.uniform(-1, 1));
  for (std::int64_t i = 0; i < b.numel(); ++i) b[i] = static_cast<float>(rng.uniform(-1, 1));
  Tensor c(Shape::mat(p.m, p.n));
  Tensor c_ref(Shape::mat(p.m, p.n));
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    c[i] = c_ref[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  tensor::gemm(a, p.ta, b, p.tb, c, p.alpha, p.beta);
  ref_gemm(a, p.ta, b, p.tb, c_ref, p.alpha, p.beta);
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    EXPECT_NEAR(c[i], c_ref[i], 1e-4) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposeAndScaling, GemmTest,
    ::testing::Values(GemmCase{3, 4, 5, false, false, 1.0f, 0.0f},
                      GemmCase{3, 4, 5, true, false, 1.0f, 0.0f},
                      GemmCase{3, 4, 5, false, true, 1.0f, 0.0f},
                      GemmCase{3, 4, 5, true, true, 1.0f, 0.0f},
                      GemmCase{1, 1, 1, false, false, 2.0f, 0.5f},
                      GemmCase{7, 2, 9, false, false, 0.5f, 1.0f},
                      GemmCase{8, 8, 8, true, true, 1.5f, -0.5f},
                      GemmCase{16, 3, 2, false, true, 1.0f, 1.0f},
                      GemmCase{2, 16, 3, true, false, -1.0f, 0.0f}));

// The scalar backend's contract: every C element is the serial float dot
// product (sum = 0; sum += a * b over kk ascending), scaled once, whatever
// the register tiling, the shard and the thread count.
TEST(Gemm, ScalarBackendBitIdenticalToSerialDotProducts) {
  const GemmCase cases[] = {
      // The search's Linear layers: forward (B^T), weight and input grads.
      {40, 128, 256, false, true, 1.0f, 0.0f},
      {8, 128, 256, false, true, 1.0f, 0.0f},
      {40, 256, 4, false, true, 1.0f, 0.0f},
      {256, 40, 128, true, false, 1.0f, 1.0f},
      {40, 256, 128, false, false, 1.0f, 0.0f},
      // Edge tiles of every transpose combination, with alpha/beta.
      {7, 13, 9, false, false, 0.5f, -1.5f},
      {7, 13, 9, true, false, 1.0f, 0.0f},
      {7, 13, 9, false, true, -2.0f, 0.25f},
      {7, 13, 9, true, true, 1.0f, 1.0f}};
  tensor::backend::ScopedBackend scalar(tensor::backend::scalar_backend());
  util::Rng rng(78);
  for (const GemmCase& p : cases) {
    Tensor a(p.ta ? Shape::mat(p.k, p.m) : Shape::mat(p.m, p.k));
    Tensor b(p.tb ? Shape::mat(p.n, p.k) : Shape::mat(p.k, p.n));
    Tensor c0(Shape::mat(p.m, p.n));
    for (Tensor* t : {&a, &b, &c0}) {
      for (std::int64_t i = 0; i < t->numel(); ++i) {
        (*t)[i] = static_cast<float>(rng.uniform(-1, 1));
      }
    }
    Tensor ref = c0;
    for (int i = 0; i < p.m; ++i) {
      for (int j = 0; j < p.n; ++j) {
        float sum = 0.0f;
        for (int kk = 0; kk < p.k; ++kk) {
          const float av = p.ta ? a.at2(kk, i) : a.at2(i, kk);
          const float bv = p.tb ? b.at2(j, kk) : b.at2(kk, j);
          sum += av * bv;
        }
        float& out = ref.at2(i, j);
        out = p.beta == 0.0f ? p.alpha * sum : p.beta * out + p.alpha * sum;
      }
    }
    for (const int threads : {1, 4}) {
      util::ThreadPool::set_global_threads(threads);
      Tensor c = c0;
      tensor::gemm(a, p.ta, b, p.tb, c, p.alpha, p.beta);
      EXPECT_EQ(std::memcmp(c.data(), ref.data(),
                            static_cast<std::size_t>(c.numel()) *
                                sizeof(float)),
                0)
          << p.m << "x" << p.k << "x" << p.n << " ta" << p.ta << " tb"
          << p.tb << " t=" << threads;
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(Gemm, DimensionMismatchThrows) {
  Tensor a(Shape::mat(2, 3)), b(Shape::mat(4, 5)), c(Shape::mat(2, 5));
  EXPECT_THROW(tensor::gemm(a, false, b, false, c), std::runtime_error);
}

// ----------------------------------------------------- im2col / col2im ----

struct ConvCase {
  int n, c, h, w, k, stride, pad;
};

class Im2ColTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Im2ColTest, MatchesDirectGather) {
  const ConvCase p = GetParam();
  util::Rng rng(5);
  Tensor x(Shape::nchw(p.n, p.c, p.h, p.w));
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform(-1, 1));
  const auto g = ConvGeometry::make(x.shape(), p.k, p.k, p.stride, p.pad);
  Tensor cols(Shape::mat(p.c * p.k * p.k, g.n * g.oh * g.ow));
  tensor::im2col(x, g, cols);

  // Every column entry must equal the corresponding (padded) input pixel.
  for (int cr = 0; cr < cols.shape()[0]; ++cr) {
    const int kw = cr % p.k, kh = (cr / p.k) % p.k, ch = cr / (p.k * p.k);
    for (int b = 0; b < g.n; ++b) {
      for (int oy = 0; oy < g.oh; ++oy) {
        for (int ox = 0; ox < g.ow; ++ox) {
          const int iy = oy * p.stride - p.pad + kh;
          const int ix = ox * p.stride - p.pad + kw;
          const float expected =
              (iy >= 0 && iy < p.h && ix >= 0 && ix < p.w)
                  ? x.at4(b, ch, iy, ix)
                  : 0.0f;
          const int col = (b * g.oh + oy) * g.ow + ox;
          EXPECT_FLOAT_EQ(cols.at2(cr, col), expected);
        }
      }
    }
  }
}

TEST_P(Im2ColTest, Col2ImIsAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> for all x, y (adjointness), verified
  // with random probes.
  const ConvCase p = GetParam();
  util::Rng rng(6);
  Tensor x(Shape::nchw(p.n, p.c, p.h, p.w));
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.uniform(-1, 1));
  const auto g = ConvGeometry::make(x.shape(), p.k, p.k, p.stride, p.pad);
  Tensor cols(Shape::mat(p.c * p.k * p.k, g.n * g.oh * g.ow));
  tensor::im2col(x, g, cols);

  Tensor y(cols.shape());
  for (std::int64_t i = 0; i < y.numel(); ++i) y[i] = static_cast<float>(rng.uniform(-1, 1));
  Tensor back(x.shape());
  tensor::col2im(y, g, back);

  EXPECT_NEAR(cols.dot(y), x.dot(back), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2ColTest,
    ::testing::Values(ConvCase{1, 1, 5, 5, 3, 1, 1},
                      ConvCase{2, 3, 6, 6, 3, 2, 1},
                      ConvCase{1, 2, 12, 12, 5, 2, 2},
                      ConvCase{3, 4, 4, 4, 1, 1, 0},
                      ConvCase{1, 3, 7, 5, 3, 1, 1},
                      ConvCase{2, 2, 6, 6, 5, 1, 2},
                      ConvCase{1, 1, 3, 3, 3, 2, 1}));

TEST(ConvGeometry, OutputDims) {
  const auto g = ConvGeometry::make(Shape::nchw(1, 3, 12, 12), 3, 3, 2, 1);
  EXPECT_EQ(g.oh, 6);
  EXPECT_EQ(g.ow, 6);
  const auto g2 = ConvGeometry::make(Shape::nchw(1, 3, 6, 6), 5, 5, 2, 2);
  EXPECT_EQ(g2.oh, 3);
  EXPECT_EQ(g2.ow, 3);
}

TEST(ConvGeometry, RejectsEmptyOutput) {
  EXPECT_THROW(ConvGeometry::make(Shape::nchw(1, 1, 2, 2), 5, 5, 1, 0),
               std::runtime_error);
}

// ------------------------------------------------------------- Softmax ----

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(8);
  Tensor logits(Shape::mat(5, 7));
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    logits[i] = static_cast<float>(rng.uniform(-10, 10));
  }
  Tensor probs(logits.shape());
  tensor::softmax_rows(logits, probs);
  for (int r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 7; ++c) {
      EXPECT_GT(probs.at2(r, c), 0.0f);
      sum += probs.at2(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableWithHugeLogits) {
  Tensor logits(Shape::mat(1, 3), {1000.0f, 1001.0f, 999.0f});
  Tensor probs(logits.shape());
  tensor::softmax_rows(logits, probs);
  EXPECT_FALSE(std::isnan(probs[0]));
  EXPECT_GT(probs.at2(0, 1), probs.at2(0, 0));
}

TEST(LogSoftmax, MatchesLogOfSoftmax) {
  util::Rng rng(9);
  Tensor logits(Shape::mat(3, 4));
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    logits[i] = static_cast<float>(rng.uniform(-3, 3));
  }
  Tensor probs(logits.shape()), logp(logits.shape());
  tensor::softmax_rows(logits, probs);
  tensor::log_softmax_rows(logits, logp);
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    EXPECT_NEAR(logp[i], std::log(probs[i]), 1e-5);
  }
}

TEST(Argmax, FindsFirstMaximum) {
  Tensor t(Shape::vec(5), {1, 5, 3, 5, 2});
  EXPECT_EQ(tensor::argmax(t), 1);
}

// --------------------------------------------------------- Serialization --

TEST(Serialize, TensorRoundTrip) {
  util::Rng rng(10);
  Tensor t(Shape::nchw(2, 3, 4, 5));
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform(-1, 1));
  std::stringstream ss;
  tensor::write_tensor(ss, t);
  Tensor u = tensor::read_tensor(ss);
  ASSERT_EQ(u.shape(), t.shape());
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_FLOAT_EQ(u[i], t[i]);
}

TEST(Serialize, FileRoundTripWithNames) {
  const std::string path = ::testing::TempDir() + "/a3cs_tensors.bin";
  std::vector<std::pair<std::string, Tensor>> tensors;
  tensors.emplace_back("w1", Tensor(Shape::mat(2, 2), {1, 2, 3, 4}));
  tensors.emplace_back("b1", Tensor(Shape::vec(3), {5, 6, 7}));
  tensor::write_tensors(path, tensors);
  const auto loaded = tensor::read_tensors(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].first, "w1");
  EXPECT_EQ(loaded[1].first, "b1");
  EXPECT_FLOAT_EQ(loaded[0].second[3], 4.0f);
  EXPECT_FLOAT_EQ(loaded[1].second[0], 5.0f);
  std::filesystem::remove(path);
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream ss;
  ss << "NOTAMAGIC";
  EXPECT_THROW(tensor::read_tensor(ss), std::runtime_error);
}

TEST(Serialize, MissingFileRejected) {
  EXPECT_THROW(tensor::read_tensors("/nonexistent/path/file.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace a3cs
