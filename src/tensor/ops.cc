#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "obs/perf/work_counters.h"
#include "obs/profile.h"
#include "tensor/backend/backend.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace a3cs::tensor {

namespace {

// Row-panel grain for the parallel GEMM decomposition and the minimum
// m*k*n below which a GEMM is not worth scheduling. Both are fixed
// constants: shard boundaries must depend only on the problem shape, and
// they are shared by every kernel backend (the backend computes shards, the
// orchestration here cuts them — see tensor/backend/backend.h).
constexpr int kGemmRowGrain = 16;
constexpr std::int64_t kGemmMinParallelWork = 1 << 16;

}  // namespace

void gemm_raw(const float* a, bool trans_a, const float* b, bool trans_b,
              float* c, int m, int k, int n, float alpha, float beta) {
  // Storage row widths of A and B as laid out in memory.
  const int a_cols = trans_a ? m : k;
  const int b_cols = trans_b ? k : n;
  if (m <= 0 || n <= 0) return;
  A3CS_PROF_SCOPE("gemm");
  {
    // Analytic work model: one FMA (2 flops) per (m,k,n) element; A and B
    // each read once, C written once (float32).
    static const obs::perf::WorkCounters wc =
        obs::perf::WorkCounters::named("gemm");
    const std::int64_t mk = static_cast<std::int64_t>(m) * std::max(0, k);
    const std::int64_t kn = static_cast<std::int64_t>(std::max(0, k)) * n;
    const std::int64_t mn = static_cast<std::int64_t>(m) * n;
    wc.add(2 * mk * n, 4 * (mk + kn), 4 * mn);
  }
  // Resolve the kernel backend once per call so every shard of this region
  // runs the same kernels even if another thread re-selects concurrently.
  const backend::Backend& be = backend::active();
  if (k <= 0) {
    // Degenerate reduction: C = beta * C.
    be.gemm_rows(a, trans_a, b, trans_b, c, 0, m, 0, n, alpha, beta, a_cols,
                 b_cols);
    return;
  }

  const std::int64_t work =
      static_cast<std::int64_t>(m) * k * n;
  if (work < kGemmMinParallelWork) {
    be.gemm_rows(a, trans_a, b, trans_b, c, 0, m, k, n, alpha, beta, a_cols,
                 b_cols);
    return;
  }
  util::parallel_for(
      0, m, kGemmRowGrain,
      [&](std::int64_t row0, std::int64_t row1) {
        be.gemm_rows(a, trans_a, b, trans_b, c, static_cast<int>(row0),
                     static_cast<int>(row1), k, n, alpha, beta, a_cols,
                     b_cols);
      },
      "gemm");
}

void gemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
          Tensor& c, float alpha, float beta) {
  A3CS_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2 &&
                 c.shape().rank() == 2,
             "gemm requires matrices");
  const int a_rows = a.shape()[0], a_cols = a.shape()[1];
  const int b_rows = b.shape()[0], b_cols = b.shape()[1];
  const int m = trans_a ? a_cols : a_rows;
  const int k = trans_a ? a_rows : a_cols;
  const int kb = trans_b ? b_cols : b_rows;
  const int n = trans_b ? b_rows : b_cols;
  A3CS_CHECK(k == kb, "gemm inner dimension mismatch");
  A3CS_CHECK(c.shape()[0] == m && c.shape()[1] == n,
             "gemm output shape mismatch");
  gemm_raw(a.data(), trans_a, b.data(), trans_b, c.data(), m, k, n, alpha,
           beta);
}

ConvGeometry ConvGeometry::make(const Shape& input, int kh, int kw, int stride,
                                int pad) {
  A3CS_CHECK(input.rank() == 4, "conv input must be NCHW");
  A3CS_CHECK(stride >= 1, "conv stride must be >= 1");
  ConvGeometry g;
  g.n = input[0];
  g.c = input[1];
  g.h = input[2];
  g.w = input[3];
  g.kh = kh;
  g.kw = kw;
  g.stride = stride;
  g.pad = pad;
  g.oh = (g.h + 2 * pad - kh) / stride + 1;
  g.ow = (g.w + 2 * pad - kw) / stride + 1;
  A3CS_CHECK(g.oh > 0 && g.ow > 0, "conv output is empty");
  return g;
}

void im2col(const Tensor& input, const ConvGeometry& g, Tensor& cols) {
  A3CS_CHECK(input.shape() == Shape::nchw(g.n, g.c, g.h, g.w),
             "im2col input shape mismatch");
  A3CS_CHECK(cols.shape() == Shape::mat(g.c * g.kh * g.kw, g.n * g.oh * g.ow),
             "im2col output shape mismatch");
  im2col(input.data(), g, cols.data());
}

void im2col(const float* in, const ConvGeometry& g, float* out) {
  const int col_rows = g.c * g.kh * g.kw;
  const int col_cols = g.n * g.oh * g.ow;
  A3CS_PROF_SCOPE("im2col");
  {
    // Pure data movement: every output cell is one gather (or zero fill);
    // the input is touched ~kh*kw times through the sliding windows.
    static const obs::perf::WorkCounters wc =
        obs::perf::WorkCounters::named("im2col");
    const std::int64_t cells =
        static_cast<std::int64_t>(col_rows) * col_cols;
    wc.add(0, 4 * cells, 4 * cells);
  }
  // Each output row belongs to exactly one (channel, ky, kx) triple, so the
  // rows can be filled independently. Grain is derived from the row width
  // only, keeping shard boundaries thread-count independent.
  const std::int64_t grain =
      std::max<std::int64_t>(1, 32768 / std::max(1, col_cols));
  util::parallel_for(
      0, col_rows, grain,
      [&](std::int64_t cr0, std::int64_t cr1) {
        backend::im2col_rows(in, g, out, static_cast<int>(cr0),
                             static_cast<int>(cr1));
      },
      "im2col");
}

void col2im(const Tensor& cols, const ConvGeometry& g, Tensor& grad_input) {
  const int col_rows = g.c * g.kh * g.kw;
  const int col_cols = g.n * g.oh * g.ow;
  A3CS_CHECK(cols.shape() == Shape::mat(col_rows, col_cols),
             "col2im input shape mismatch");
  A3CS_PROF_SCOPE("col2im");
  {
    // Scatter-accumulate: one add per column cell back into the image.
    static const obs::perf::WorkCounters wc =
        obs::perf::WorkCounters::named("col2im");
    const std::int64_t cells =
        static_cast<std::int64_t>(col_rows) * col_cols;
    wc.add(cells, 4 * cells, 4 * cells);
  }
  A3CS_CHECK(grad_input.shape() == Shape::nchw(g.n, g.c, g.h, g.w),
             "col2im output shape mismatch");
  grad_input.zero();
  const float* in = cols.data();
  float* out = grad_input.data();
  // The scatter-add overlaps between kernel offsets of the SAME channel but
  // never across channels, so channels are the race-free unit of work. Each
  // shard walks its channels' column rows in the same ascending order as the
  // serial loop, keeping the accumulation order bit-exact.
  util::parallel_for(
      0, g.c, 1,
      [&](std::int64_t ch0, std::int64_t ch1) {
        backend::col2im_channels(in, g, out, static_cast<int>(ch0),
                                 static_cast<int>(ch1));
      },
      "col2im");
}

void softmax_rows(const Tensor& logits, Tensor& probs) {
  A3CS_CHECK(logits.shape().rank() == 2, "softmax_rows requires a matrix");
  A3CS_CHECK(probs.shape() == logits.shape(), "softmax output shape mismatch");
  const int rows = logits.shape()[0], cols = logits.shape()[1];
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::size_t>(r) * cols;
    float* out = probs.data() + static_cast<std::size_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) {
      out[c] = std::exp(in[c] - mx);
      sum += out[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (int c = 0; c < cols; ++c) out[c] *= inv;
  }
}

void log_softmax_rows(const Tensor& logits, Tensor& log_probs) {
  A3CS_CHECK(logits.shape().rank() == 2, "log_softmax_rows requires a matrix");
  A3CS_CHECK(log_probs.shape() == logits.shape(),
             "log_softmax output shape mismatch");
  const int rows = logits.shape()[0], cols = logits.shape()[1];
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::size_t>(r) * cols;
    float* out = log_probs.data() + static_cast<std::size_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) sum += std::exp(in[c] - mx);
    const float lse = mx + static_cast<float>(std::log(sum));
    for (int c = 0; c < cols; ++c) out[c] = in[c] - lse;
  }
}

std::int64_t argmax(const Tensor& t) {
  A3CS_CHECK(t.numel() > 0, "argmax of empty tensor");
  std::int64_t best = 0;
  for (std::int64_t i = 1; i < t.numel(); ++i) {
    if (t[i] > t[best]) best = i;
  }
  return best;
}

}  // namespace a3cs::tensor
