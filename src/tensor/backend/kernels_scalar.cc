// The blocked-scalar reference backend: the portable kernels moved verbatim
// from tensor/ops.cc and nn/layers.cc, plus the depthwise kernels, which
// restructure the loops but keep every per-element operation order.
// Compiled with the baseline flags only (no -mavx2/-mfma), so on every host
// A3CS_BACKEND=scalar is bit-identical to the historical results at every
// thread count.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/backend/backend.h"

namespace a3cs::tensor::backend {

namespace {

// Register-tile sizes of the blocked GEMM micro-kernel. Per C element the
// reduction always runs kk ascending, so results do not depend on the tile
// sizes or on which shard computed the element. 4x8 = 32 accumulator floats
// fits the baseline-SSE2 register file (16 xmm) without spilling.
constexpr int kMR = 4;  // A rows per micro-tile
constexpr int kNR = 8;  // C columns accumulated in registers

inline float a_at(const float* a, bool trans_a, int a_cols, int i, int kk) {
  return trans_a ? a[static_cast<std::size_t>(kk) * a_cols + i]
                 : a[static_cast<std::size_t>(i) * a_cols + kk];
}

// Writes an accumulator tile back to C with the alpha/beta scaling applied
// exactly once per output element.
inline void store_tile(const float (*acc)[kNR], float* c, int i0, int j0,
                       int mr, int nr, int n, float alpha, float beta) {
  for (int r = 0; r < mr; ++r) {
    float* crow = c + static_cast<std::size_t>(i0 + r) * n + j0;
    if (beta == 0.0f) {
      for (int j = 0; j < nr; ++j) crow[j] = alpha * acc[r][j];
    } else {
      for (int j = 0; j < nr; ++j) {
        crow[j] = beta * crow[j] + alpha * acc[r][j];
      }
    }
  }
}

// Full kMR x kNR tile of the !trans_b path with COMPILE-TIME loop bounds:
// at -O2 the constant-bound loops fully unroll and the accumulator tile
// lives in registers for the whole kk reduction, so each A value and B row
// segment is reused kMR times and C is touched once instead of k times.
// (Variable-bound edge tiles spill the accumulator and run ~3x slower.)
template <bool TransA>
inline void micro_tile_full(const float* a, const float* b, float* c, int i0,
                            int j0, int k, int n, float alpha, float beta,
                            int a_cols, int b_cols) {
  float acc[kMR][kNR] = {};
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = b + static_cast<std::size_t>(kk) * b_cols + j0;
    for (int r = 0; r < kMR; ++r) {
      const float av = a_at(a, TransA, a_cols, i0 + r, kk);
      for (int j = 0; j < kNR; ++j) acc[r][j] += av * brow[j];
    }
  }
  store_tile(acc, c, i0, j0, kMR, kNR, n, alpha, beta);
}

// C[r0:r1, :] = alpha * A[r0:r1, :] @ B + beta * C[r0:r1, :].
// Every C element reduces kk ascending on every path (full tiles, edge
// tiles, trans_b dot products), so the result is independent of the tiling
// and of which shard computed it.
void gemm_rows(const float* a, bool trans_a, const float* b, bool trans_b,
               float* c, int r0, int r1, int k, int n, float alpha, float beta,
               int a_cols, int b_cols) {
  for (int i0 = r0; i0 < r1; i0 += kMR) {
    const int mr = std::min(kMR, r1 - i0);
    int j_start = 0;
    if (!trans_b && mr == kMR) {
      // Fast path over the full tiles of this row panel.
      for (; j_start + kNR <= n; j_start += kNR) {
        if (trans_a) {
          micro_tile_full<true>(a, b, c, i0, j_start, k, n, alpha, beta,
                                a_cols, b_cols);
        } else {
          micro_tile_full<false>(a, b, c, i0, j_start, k, n, alpha, beta,
                                 a_cols, b_cols);
        }
      }
      if (j_start == n) continue;
    }
    for (int j0 = j_start; j0 < n; j0 += kNR) {
      const int nr = std::min(kNR, n - j0);
      float acc[kMR][kNR] = {};
      if (!trans_b) {
        for (int kk = 0; kk < k; ++kk) {
          const float* brow = b + static_cast<std::size_t>(kk) * b_cols + j0;
          for (int r = 0; r < mr; ++r) {
            const float av = a_at(a, trans_a, a_cols, i0 + r, kk);
            for (int j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
          }
        }
      } else {
        // B^T case: both reductions run over contiguous rows of A and B.
        for (int j = 0; j < nr; ++j) {
          const float* bcol = b + static_cast<std::size_t>(j0 + j) * b_cols;
          for (int r = 0; r < mr; ++r) {
            float sum = 0.0f;
            if (!trans_a) {
              const float* arow = a + static_cast<std::size_t>(i0 + r) * a_cols;
              for (int kk = 0; kk < k; ++kk) sum += arow[kk] * bcol[kk];
            } else {
              for (int kk = 0; kk < k; ++kk) {
                sum += a_at(a, trans_a, a_cols, i0 + r, kk) * bcol[kk];
              }
            }
            acc[r][j] = sum;
          }
        }
      }
      store_tile(acc, c, i0, j0, mr, nr, n, alpha, beta);
    }
  }
}

// Fills column-matrix rows [cr0, cr1); each row is one (channel, ky, kx)
// triple, filled column-major over (n, oy, ox) with zero padding.
void im2col_rows(const float* in, const ConvGeometry& g, float* out, int cr0,
                 int cr1) {
  const int hw = g.h * g.w;
  const int ohw = g.oh * g.ow;
  const int col_cols = g.n * ohw;
  for (int cr = cr0; cr < cr1; ++cr) {
    const int kw_off = cr % g.kw;
    const int kh_off = (cr / g.kw) % g.kh;
    const int ch = cr / (g.kw * g.kh);
    float* orow = out + static_cast<std::size_t>(cr) * col_cols;
    for (int n = 0; n < g.n; ++n) {
      const float* img = in + (static_cast<std::size_t>(n) * g.c + ch) * hw;
      float* ocell = orow + static_cast<std::size_t>(n) * ohw;
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy = oy * g.stride - g.pad + kh_off;
        if (iy < 0 || iy >= g.h) {
          std::fill(ocell, ocell + g.ow, 0.0f);
          ocell += g.ow;
          continue;
        }
        const float* irow = img + static_cast<std::size_t>(iy) * g.w;
        for (int ox = 0; ox < g.ow; ++ox) {
          const int ix = ox * g.stride - g.pad + kw_off;
          *ocell++ = (ix < 0 || ix >= g.w) ? 0.0f : irow[ix];
        }
      }
    }
  }
}

// Scatter-adds the column rows of channels [c0, c1) into the pre-zeroed
// gradient image, walking column-rows in the same ascending order as the
// serial loop so the accumulation order stays bit-exact.
void col2im_channels(const float* in, const ConvGeometry& g, float* out,
                     int c0, int c1) {
  const int hw = g.h * g.w;
  const int ohw = g.oh * g.ow;
  const int col_cols = g.n * ohw;
  const int khw = g.kh * g.kw;
  for (int cr = c0 * khw; cr < c1 * khw; ++cr) {
    const int kw_off = cr % g.kw;
    const int kh_off = (cr / g.kw) % g.kh;
    const int ch = cr / (g.kw * g.kh);
    const float* irow = in + static_cast<std::size_t>(cr) * col_cols;
    for (int n = 0; n < g.n; ++n) {
      float* img = out + (static_cast<std::size_t>(n) * g.c + ch) * hw;
      const float* icell = irow + static_cast<std::size_t>(n) * ohw;
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy = oy * g.stride - g.pad + kh_off;
        if (iy < 0 || iy >= g.h) {
          icell += g.ow;
          continue;
        }
        float* orow = img + static_cast<std::size_t>(iy) * g.w;
        for (int ox = 0; ox < g.ow; ++ox) {
          const int ix = ox * g.stride - g.pad + kw_off;
          const float v = *icell++;
          if (ix >= 0 && ix < g.w) orow[ix] += v;
        }
      }
    }
  }
}

// One (sample, out-channel) output row per task: bias broadcast, then a
// saxpy per nonzero weight. The zero-weight skip only changes measured
// time, never results.
void conv_forward_tasks(const float* weight, const float* bias,
                        const float* cols, float* out, int out_c, int ckk,
                        int cols_per_sample, int batch_cols, std::int64_t t0,
                        std::int64_t t1) {
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

// Weight/bias gradient accumulation for out-channels [oc0, oc1): the batch
// loop stays innermost and ascending with double accumulators, matching the
// serial accumulation order bit for bit.
void conv_backward_wgrad(const float* grad_out, const float* cols,
                         float* weight_grad, float* bias_grad, int n,
                         int out_c, int ckk, int ohw, int batch_cols, int oc0,
                         int oc1) {
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

// Column-gradient slices for samples [n0, n1):
// grad_cols_slice(ckk x ohw) = W^T(ckk x OC) @ g(OC x ohw).
void conv_backward_colgrad(const float* grad_out, const float* weight,
                           float* grad_cols, int out_c, int ckk, int ohw,
                           int batch_cols, int n0, int n1) {
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

// Output columns [lo, hi) of a row whose g.kw horizontal taps all fall
// inside the input: ox * stride - pad >= 0 and ox * stride - pad + kw <= w.
// Floor-division bounds clamped to [0, ow], so the span is empty when the
// kernel is wider than the input.
struct ColumnSpan {
  int lo, hi;
};

ColumnSpan interior_columns(const ConvGeometry& g) {
  const int lo = std::min((g.pad + g.stride - 1) / g.stride, g.ow);
  const int num = g.w - g.kw + g.pad;
  const int last =
      num >= 0 ? num / g.stride : -((-num + g.stride - 1) / g.stride);
  return ColumnSpan{lo, std::clamp(last + 1, lo, g.ow)};
}

// Depthwise output planes [p0, p1), plane p = n * g.c + c. Each output row
// is cut into a left border, an interior whose taps are all in bounds (an
// unchecked K-tap loop per kernel row) and a right border; every row clamps
// the kernel rows to [ky0, ky1). Invalid taps are skipped exactly as the
// bounds-checked loop skipped them, so each output keeps the order
// acc = bias, then valid taps ky-then-kx ascending — bit-exact with it.
void dw_forward_planes(const float* in, const float* weight, const float* bias,
                       const ConvGeometry& g, float* out, std::int64_t p0,
                       std::int64_t p1) {
  const int k = g.kh;
  const ColumnSpan xs = interior_columns(g);
  for (std::int64_t p = p0; p < p1; ++p) {
    const int c = static_cast<int>(p % g.c);
    const float* x = in + static_cast<std::size_t>(p) * g.h * g.w;
    const float* w = weight + static_cast<std::size_t>(c) * k * k;
    const float b = bias[c];
    float* y = out + static_cast<std::size_t>(p) * g.oh * g.ow;
    for (int oy = 0; oy < g.oh; ++oy) {
      const int iy0 = oy * g.stride - g.pad;
      const int ky0 = std::max(0, -iy0);
      const int ky1 = std::min(k, g.h - iy0);
      const auto border = [&](int ox) {
        const int ix0 = ox * g.stride - g.pad;
        const int kx0 = std::max(0, -ix0);
        const int kx1 = std::min(k, g.w - ix0);
        float acc = b;
        for (int ky = ky0; ky < ky1; ++ky) {
          const float* xr = x + static_cast<std::size_t>(iy0 + ky) * g.w;
          for (int kx = kx0; kx < kx1; ++kx) {
            acc += w[ky * k + kx] * xr[ix0 + kx];
          }
        }
        return acc;
      };
      float* yr = y + static_cast<std::size_t>(oy) * g.ow;
      for (int ox = 0; ox < xs.lo; ++ox) yr[ox] = border(ox);
      for (int ox = xs.lo; ox < xs.hi; ++ox) {
        const int ix0 = ox * g.stride - g.pad;
        float acc = b;
        for (int ky = ky0; ky < ky1; ++ky) {
          const float* xr = x + static_cast<std::size_t>(iy0 + ky) * g.w + ix0;
          const float* wr = w + ky * k;
          for (int kx = 0; kx < k; ++kx) acc += wr[kx] * xr[kx];
        }
        yr[ox] = acc;
      }
      for (int ox = xs.hi; ox < g.ow; ++ox) yr[ox] = border(ox);
    }
  }
}

// Depthwise gradients for channels [c0, c1), samples ascending inside each
// channel, then oy, ox ascending — the serial visit order, so weight row c,
// bias[c] (one double sum per plane) and the grad_input planes of c see the
// same accumulation sequence as the bounds-checked loop, go == 0 skip
// included. grad_input must be pre-zeroed; weight/bias grads accumulate.
void dw_backward_channels(const float* grad_out, const float* in,
                          const float* weight, const ConvGeometry& g,
                          float* grad_input, float* weight_grad,
                          float* bias_grad, int c0, int c1) {
  const int k = g.kh;
  const ColumnSpan xs = interior_columns(g);
  // Weight row c and bias[c] accumulate in locals (the same float add
  // sequence) and are stored once per channel: neighbouring channels' rows
  // share cache lines, and shards on other threads write them.
  std::vector<float> wg(static_cast<std::size_t>(k) * k);
  for (int c = c0; c < c1; ++c) {
    const float* w = weight + static_cast<std::size_t>(c) * k * k;
    float* wg_out = weight_grad + static_cast<std::size_t>(c) * k * k;
    std::copy(wg_out, wg_out + k * k, wg.begin());
    float bg = bias_grad[c];
    for (int n = 0; n < g.n; ++n) {
      const std::size_t p = static_cast<std::size_t>(n) * g.c + c;
      const float* x = in + p * g.h * g.w;
      float* gi = grad_input + p * g.h * g.w;
      const float* go_plane = grad_out + p * g.oh * g.ow;
      double bias_acc = 0.0;
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy0 = oy * g.stride - g.pad;
        const int ky0 = std::max(0, -iy0);
        const int ky1 = std::min(k, g.h - iy0);
        const float* gor = go_plane + static_cast<std::size_t>(oy) * g.ow;
        for (int ox = 0; ox < g.ow; ++ox) {
          const float go = gor[ox];
          bias_acc += go;
          if (go == 0.0f) continue;
          const int ix0 = ox * g.stride - g.pad;
          const bool inside = ox >= xs.lo && ox < xs.hi;
          const int kx0 = inside ? 0 : std::max(0, -ix0);
          const int kx1 = inside ? k : std::min(k, g.w - ix0);
          for (int ky = ky0; ky < ky1; ++ky) {
            const std::size_t row = static_cast<std::size_t>(iy0 + ky) * g.w;
            const float* xr = x + row;
            float* gir = gi + row;
            const float* wr = w + ky * k;
            float* wgr = wg.data() + ky * k;
            for (int kx = kx0; kx < kx1; ++kx) {
              wgr[kx] += go * xr[ix0 + kx];
              gir[ix0 + kx] += go * wr[kx];
            }
          }
        }
      }
      bg += static_cast<float>(bias_acc);
    }
    std::copy(wg.begin(), wg.end(), wg_out);
    bias_grad[c] = bg;
  }
}

}  // namespace

const Backend& scalar_backend() {
  static const Backend kScalar{
      "scalar",          gemm_rows,           im2col_rows,
      col2im_channels,   conv_forward_tasks,  conv_backward_wgrad,
      conv_backward_colgrad, dw_forward_planes, dw_backward_channels,
  };
  return kScalar;
}

}  // namespace a3cs::tensor::backend
