// AVX2/FMA kernel backend. This TU is the ONLY one compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt, enforced by the
// arch-intrinsics-scoped lint rule); when the toolchain lacks the flags the
// A3CS_BACKEND_AVX2_TU define is absent and the stub at the bottom reports
// the backend unavailable. Registration is additionally gated at runtime on
// __builtin_cpu_supports("avx2"/"fma"), so a binary built here still runs
// (on the scalar backend) on older x86 hosts.
//
// Numerics: deterministic at every thread count — shard boundaries come from
// the caller and every per-element reduction runs in a fixed order (kk
// ascending in GEMM, lane-then-horizontal in fixed order for the conv
// gradient dots) — but NOT bit-identical to the scalar backend: FMA fuses
// the multiply-add rounding step and 8-lane sums reorder float addition.
// im2col (pure data movement) and col2im (same per-element add order) ARE
// bit-exact with scalar. Cross-backend agreement is enforced under the ULP
// tolerance of tensor/backend/check.h by tests/backend_check_test.cc.
#include "tensor/backend/backend.h"

#if defined(A3CS_BACKEND_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace a3cs::tensor::backend {

namespace {

// 6x16 register tile: 12 ymm accumulators + 2 B lanes + 1 broadcast A value
// = 15 of the 16 ymm registers live across the kk loop, no spills.
constexpr int kMR = 6;   // A rows per micro-tile
constexpr int kNR = 16;  // C columns per micro-tile (two 8-lane vectors)

// Packs op(A)[i0:i0+kMR, :] into kk-major order (kMR consecutive values per
// kk), zero-padding rows past r1 so the micro-kernel never branches on mr.
void pack_a_strip(const float* a, bool trans_a, int a_cols, int i0, int r1,
                  int k, float* dst) {
  for (int kk = 0; kk < k; ++kk) {
    float* drow = dst + static_cast<std::size_t>(kk) * kMR;
    for (int r = 0; r < kMR; ++r) {
      const int i = i0 + r;
      drow[r] = (i < r1)
                    ? (trans_a ? a[static_cast<std::size_t>(kk) * a_cols + i]
                               : a[static_cast<std::size_t>(i) * a_cols + kk])
                    : 0.0f;
    }
  }
}

// Packs op(B)[:, j0:j0+kNR] into kk-major order (kNR consecutive values per
// kk), zero-padding columns past n. Unifies the trans_b cases: the micro-
// kernel always streams two contiguous 8-lane loads per kk.
void pack_b_panel(const float* b, bool trans_b, int b_cols, int j0, int n,
                  int k, float* dst) {
  const int nr = std::min(kNR, n - j0);
  if (!trans_b) {
    for (int kk = 0; kk < k; ++kk) {
      const float* brow = b + static_cast<std::size_t>(kk) * b_cols + j0;
      float* drow = dst + static_cast<std::size_t>(kk) * kNR;
      for (int j = 0; j < nr; ++j) drow[j] = brow[j];
      for (int j = nr; j < kNR; ++j) drow[j] = 0.0f;
    }
  } else {
    for (int kk = 0; kk < k; ++kk) {
      float* drow = dst + static_cast<std::size_t>(kk) * kNR;
      for (int j = 0; j < nr; ++j) {
        drow[j] = b[static_cast<std::size_t>(j0 + j) * b_cols + kk];
      }
      for (int j = nr; j < kNR; ++j) drow[j] = 0.0f;
    }
  }
}

// The 6x16 FMA micro-kernel over one packed A strip and one packed B panel.
// 12 explicitly named ymm accumulators (the compiler will not reliably keep
// a __m256[6][2] array in registers) + 2 B lanes + 1 A broadcast = 15 live
// ymm registers across the kk loop. `cr` points at C[i0, j0]; `ldc` is the
// storage row width of C. When beta == 0 the tile never reads C.
inline void micro_6x16(const float* ap, const float* bp, int k, float* cr,
                       int ldc, int mr, int nr, __m256 alpha_v, __m256 beta_v,
                       float alpha, float beta) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp);
    const __m256 b1 = _mm256_loadu_ps(bp + 8);
    __m256 av = _mm256_broadcast_ss(ap + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(ap + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(ap + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(ap + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(ap + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(ap + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
    ap += kMR;
    bp += kNR;
  }
  if (mr == kMR && nr == kNR) {
    if (beta == 0.0f) {
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c00));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c01));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c10));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c11));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c20));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c21));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c30));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c31));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c40));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c41));
      cr += ldc;
      _mm256_storeu_ps(cr, _mm256_mul_ps(alpha_v, c50));
      _mm256_storeu_ps(cr + 8, _mm256_mul_ps(alpha_v, c51));
    } else {
      const auto blend = [&](float* p, __m256 acc0, __m256 acc1) {
        _mm256_storeu_ps(p, _mm256_fmadd_ps(beta_v, _mm256_loadu_ps(p),
                                            _mm256_mul_ps(alpha_v, acc0)));
        _mm256_storeu_ps(
            p + 8, _mm256_fmadd_ps(beta_v, _mm256_loadu_ps(p + 8),
                                   _mm256_mul_ps(alpha_v, acc1)));
      };
      blend(cr, c00, c01);
      blend(cr + ldc, c10, c11);
      blend(cr + 2 * static_cast<std::size_t>(ldc), c20, c21);
      blend(cr + 3 * static_cast<std::size_t>(ldc), c30, c31);
      blend(cr + 4 * static_cast<std::size_t>(ldc), c40, c41);
      blend(cr + 5 * static_cast<std::size_t>(ldc), c50, c51);
    }
    return;
  }
  // Edge tile: spill the accumulators and apply alpha/beta only to the
  // in-range cells (padded lanes must not touch C).
  alignas(32) float tmp[kMR][kNR];
  _mm256_store_ps(tmp[0], c00);
  _mm256_store_ps(tmp[0] + 8, c01);
  _mm256_store_ps(tmp[1], c10);
  _mm256_store_ps(tmp[1] + 8, c11);
  _mm256_store_ps(tmp[2], c20);
  _mm256_store_ps(tmp[2] + 8, c21);
  _mm256_store_ps(tmp[3], c30);
  _mm256_store_ps(tmp[3] + 8, c31);
  _mm256_store_ps(tmp[4], c40);
  _mm256_store_ps(tmp[4] + 8, c41);
  _mm256_store_ps(tmp[5], c50);
  _mm256_store_ps(tmp[5] + 8, c51);
  for (int r = 0; r < mr; ++r) {
    float* crow = cr + static_cast<std::size_t>(r) * ldc;
    if (beta == 0.0f) {
      for (int j = 0; j < nr; ++j) crow[j] = alpha * tmp[r][j];
    } else {
      for (int j = 0; j < nr; ++j) crow[j] = beta * crow[j] + alpha * tmp[r][j];
    }
  }
}

// C[r0:r1, :] = alpha * op(A)[r0:r1, :] @ op(B) + beta * C[r0:r1, :].
// Per element the reduction is one FMA chain over kk ascending, independent
// of the strip/panel an element lands in, so results do not depend on the
// shard boundaries (= thread count).
void gemm_rows(const float* a, bool trans_a, const float* b, bool trans_b,
               float* c, int r0, int r1, int k, int n, float alpha, float beta,
               int a_cols, int b_cols) {
  if (r1 <= r0 || n <= 0) return;
  if (k <= 0) {
    // Degenerate reduction: C = beta * C (never read C when beta == 0).
    for (int i = r0; i < r1; ++i) {
      float* crow = c + static_cast<std::size_t>(i) * n;
      if (beta == 0.0f) {
        std::fill(crow, crow + n, 0.0f);
      } else {
        for (int j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }

  const int rows = r1 - r0;
  const int strips = (rows + kMR - 1) / kMR;
  std::vector<float> packed_a(static_cast<std::size_t>(strips) * k * kMR);
  for (int s = 0; s < strips; ++s) {
    pack_a_strip(a, trans_a, a_cols, r0 + s * kMR, r1, k,
                 packed_a.data() + static_cast<std::size_t>(s) * k * kMR);
  }
  std::vector<float> packed_b(static_cast<std::size_t>(k) * kNR);

  const __m256 alpha_v = _mm256_set1_ps(alpha);
  const __m256 beta_v = _mm256_set1_ps(beta);
  for (int j0 = 0; j0 < n; j0 += kNR) {
    const int nr = std::min(kNR, n - j0);
    pack_b_panel(b, trans_b, b_cols, j0, n, k, packed_b.data());
    for (int s = 0; s < strips; ++s) {
      const int i0 = r0 + s * kMR;
      const int mr = std::min(kMR, r1 - i0);
      micro_6x16(packed_a.data() + static_cast<std::size_t>(s) * k * kMR,
                 packed_b.data(), k, c + static_cast<std::size_t>(i0) * n + j0,
                 n, mr, nr, alpha_v, beta_v, alpha, beta);
    }
  }
}

// im2col rows. Pure data movement, bit-exact with scalar. The stride==1 fast
// path turns the gather of each output row segment into prefix-zeros, one
// contiguous copy and suffix-zeros.
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
    // Valid ox range for stride==1: 0 <= ox - pad + kw_off < w.
    const int x_lo = std::max(0, g.pad - kw_off);
    const int x_hi = std::min(g.ow, g.w + g.pad - kw_off);
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
        if (g.stride == 1) {
          if (x_lo > 0) std::fill(ocell, ocell + std::min(x_lo, g.ow), 0.0f);
          if (x_hi > x_lo) {
            std::memcpy(ocell + x_lo, irow + (x_lo - g.pad + kw_off),
                        static_cast<std::size_t>(x_hi - x_lo) * sizeof(float));
          }
          if (x_hi < g.ow) {
            std::fill(ocell + std::max(x_hi, 0), ocell + g.ow, 0.0f);
          }
          ocell += g.ow;
        } else {
          for (int ox = 0; ox < g.ow; ++ox) {
            const int ix = ox * g.stride - g.pad + kw_off;
            *ocell++ = (ix < 0 || ix >= g.w) ? 0.0f : irow[ix];
          }
        }
      }
    }
  }
}

// col2im channels. Bit-exact with scalar: every image cell receives its adds
// in the same ascending column-row order; the stride==1 middle segment is an
// elementwise 8-lane vector add, which does not reorder any per-cell sum.
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
    const int x_lo = std::max(0, g.pad - kw_off);
    const int x_hi = std::min(g.ow, g.w + g.pad - kw_off);
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
        if (g.stride == 1 && x_hi > x_lo) {
          float* dst = orow + (x_lo - g.pad + kw_off);
          const float* src = icell + x_lo;
          const int len = x_hi - x_lo;
          int j = 0;
          for (; j + 8 <= len; j += 8) {
            _mm256_storeu_ps(dst + j, _mm256_add_ps(_mm256_loadu_ps(dst + j),
                                                    _mm256_loadu_ps(src + j)));
          }
          for (; j < len; ++j) dst[j] += src[j];
          icell += g.ow;
        } else {
          for (int ox = 0; ox < g.ow; ++ox) {
            const int ix = ox * g.stride - g.pad + kw_off;
            const float v = *icell++;
            if (ix >= 0 && ix < g.w) orow[ix] += v;
          }
        }
      }
    }
  }
}

// sum_j x[j] in double precision: float values widened lane-wise into four
// double accumulators, combined in a fixed order (so the result is
// shard-independent), scalar tail last.
inline double sum_pd(const float* x, int len) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 v = _mm256_loadu_ps(x + j);
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_add_pd(acc0, acc1));
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; j < len; ++j) sum += static_cast<double>(x[j]);
  return sum;
}

// sum_j x[j]*y[j] with float products widened into double accumulators,
// matching the scalar backend's float-multiply-then-widen per element.
inline double dot_pd(const float* x, const float* y, int len) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  int j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 p =
        _mm256_mul_ps(_mm256_loadu_ps(x + j), _mm256_loadu_ps(y + j));
    acc0 = _mm256_add_pd(acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(p)));
    acc1 = _mm256_add_pd(acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(p, 1)));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, _mm256_add_pd(acc0, acc1));
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; j < len; ++j) sum += static_cast<double>(x[j] * y[j]);
  return sum;
}

// Conv register tiles over batch columns, the scalar backend's tile shape
// with 8-lane FMA: one tile is 4 out-channels (forward) or 4 ckk rows
// (colgrad) x 16 batch columns, spanning sample boundaries. Every output
// runs the same fused sequence on every path (tile lanes and the std::fma
// column tail alike), so results do not depend on the shard boundaries.
// The zero-weight skip stays, as in the scalar tiles: it keeps a -0.0 bias
// and keeps 0 * inf from turning an output into NaN.
constexpr int kConvMR = 4;
constexpr int kConvNV = 2;  // __m256 vectors per tile row: 16 batch columns
constexpr int kConvNC = 8 * kConvNV;

// Offset of batch column j of out-channel 0 in an (n, out_c, cps) tensor.
inline std::size_t nchw_offset(int j, int out_c, int cps) {
  const int s = j / cps;
  return static_cast<std::size_t>(s) * out_c * cps + (j - s * cps);
}

template <int MR, int NV>
inline void conv_fwd_tile(const float* weight, const float* bias,
                          const float* cols, float* out, int out_c, int ckk,
                          int cps, int batch_cols, int oc0, int j0) {
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_set1_ps(bias[oc0 + r]);
  }
  const float* w = weight + static_cast<std::size_t>(oc0) * ckk;
  const float* c = cols + j0;
  for (int kk = 0; kk < ckk; ++kk, c += batch_cols) {
    __m256 cv[NV];
    for (int v = 0; v < NV; ++v) cv[v] = _mm256_loadu_ps(c + 8 * v);
    for (int r = 0; r < MR; ++r) {
      const float wv = w[static_cast<std::size_t>(r) * ckk + kk];
      if (wv == 0.0f) continue;
      const __m256 wb = _mm256_set1_ps(wv);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_ps(wb, cv[v], acc[r][v]);
      }
    }
  }
  alignas(32) float lanes[MR][8 * NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) _mm256_store_ps(lanes[r] + 8 * v, acc[r][v]);
  }
  for (int l = 0; l < 8 * NV; ++l) {
    float* o = out + nchw_offset(j0 + l, out_c, cps) +
               static_cast<std::size_t>(oc0) * cps;
    for (int r = 0; r < MR; ++r) {
      o[static_cast<std::size_t>(r) * cps] = lanes[r][l];
    }
  }
}

template <int NV>
void conv_fwd_block(const float* weight, const float* bias, const float* cols,
                    float* out, int out_c, int ckk, int cps, int batch_cols,
                    int j0) {
  int oc = 0;
  for (; oc + kConvMR <= out_c; oc += kConvMR) {
    conv_fwd_tile<kConvMR, NV>(weight, bias, cols, out, out_c, ckk, cps,
                               batch_cols, oc, j0);
  }
  for (; oc < out_c; ++oc) {
    conv_fwd_tile<1, NV>(weight, bias, cols, out, out_c, ckk, cps, batch_cols,
                         oc, j0);
  }
}

// Conv forward of batch columns [j0, j1): 16- then 8-column tiles, then a
// std::fma tail per column.
void conv_forward_cols(const float* weight, const float* bias,
                       const float* cols, float* out, int out_c, int ckk,
                       int cols_per_sample, int batch_cols, int j0, int j1) {
  const int cps = cols_per_sample;
  int j = j0;
  for (; j + kConvNC <= j1; j += kConvNC) {
    conv_fwd_block<kConvNV>(weight, bias, cols, out, out_c, ckk, cps,
                            batch_cols, j);
  }
  for (; j + 8 <= j1; j += 8) {
    conv_fwd_block<1>(weight, bias, cols, out, out_c, ckk, cps, batch_cols, j);
  }
  for (; j < j1; ++j) {
    float* o = out + nchw_offset(j, out_c, cps);
    for (int oc = 0; oc < out_c; ++oc) {
      const float* wrow = weight + static_cast<std::size_t>(oc) * ckk;
      float acc = bias[oc];
      for (int kk = 0; kk < ckk; ++kk) {
        const float wv = wrow[kk];
        if (wv == 0.0f) continue;
        acc = std::fma(wv, cols[static_cast<std::size_t>(kk) * batch_cols + j],
                       acc);
      }
      o[static_cast<std::size_t>(oc) * cps] = acc;
    }
  }
}

// Conv weight/bias gradients: vectorized double-accumulator dots, batch
// ascending innermost like the scalar backend.
void conv_backward_wgrad(const float* grad_out, const float* cols,
                         float* weight_grad, float* bias_grad, int n,
                         int out_c, int ckk, int ohw, int batch_cols, int oc0,
                         int oc1) {
  for (int oc = oc0; oc < oc1; ++oc) {
    float* wrow = weight_grad + static_cast<std::size_t>(oc) * ckk;
    for (int s = 0; s < n; ++s) {
      const float* grow =
          grad_out + (static_cast<std::size_t>(s) * out_c + oc) * ohw;
      bias_grad[oc] += static_cast<float>(sum_pd(grow, ohw));
      for (int kk = 0; kk < ckk; ++kk) {
        const float* crow = cols + static_cast<std::size_t>(kk) * batch_cols +
                            static_cast<std::size_t>(s) * ohw;
        wrow[kk] += static_cast<float>(dot_pd(grow, crow, ohw));
      }
    }
  }
}

// Column-gradient tile: ckk rows [kk0, kk0 + MR) x the gathered batch
// columns of `gblock` ((out_c x 8 * NV), row-major).
template <int MR, int NV>
inline void conv_colgrad_tile(const float* gblock, const float* weight,
                              float* grad_cols, int out_c, int ckk,
                              int batch_cols, int kk0, int j0) {
  __m256 acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();
  }
  for (int oc = 0; oc < out_c; ++oc) {
    __m256 gv[NV];
    for (int v = 0; v < NV; ++v) {
      gv[v] = _mm256_loadu_ps(gblock + static_cast<std::size_t>(oc) * 8 * NV +
                              8 * v);
    }
    const float* w = weight + static_cast<std::size_t>(oc) * ckk + kk0;
    for (int r = 0; r < MR; ++r) {
      if (w[r] == 0.0f) continue;
      const __m256 wb = _mm256_set1_ps(w[r]);
      for (int v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_fmadd_ps(wb, gv[v], acc[r][v]);
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* gc = grad_cols + static_cast<std::size_t>(kk0 + r) * batch_cols + j0;
    for (int v = 0; v < NV; ++v) _mm256_storeu_ps(gc + 8 * v, acc[r][v]);
  }
}

template <int NV>
void conv_colgrad_block(const float* grad_out, const float* weight,
                        float* grad_cols, float* gblock, int out_c, int ckk,
                        int cps, int batch_cols, int j0) {
  constexpr int nc = 8 * NV;
  for (int c = 0; c < nc; ++c) {
    const float* g = grad_out + nchw_offset(j0 + c, out_c, cps);
    for (int oc = 0; oc < out_c; ++oc) {
      gblock[static_cast<std::size_t>(oc) * nc + c] =
          g[static_cast<std::size_t>(oc) * cps];
    }
  }
  int kk = 0;
  for (; kk + kConvMR <= ckk; kk += kConvMR) {
    conv_colgrad_tile<kConvMR, NV>(gblock, weight, grad_cols, out_c, ckk,
                                   batch_cols, kk, j0);
  }
  for (; kk < ckk; ++kk) {
    conv_colgrad_tile<1, NV>(gblock, weight, grad_cols, out_c, ckk,
                             batch_cols, kk, j0);
  }
}

// Conv column gradient of batch columns [j0, j1), overwriting.
void conv_backward_colgrad(const float* grad_out, const float* weight,
                           float* grad_cols, int out_c, int ckk, int ohw,
                           int batch_cols, int j0, int j1) {
  std::vector<float> gblock(static_cast<std::size_t>(out_c) * kConvNC);
  int j = j0;
  for (; j + kConvNC <= j1; j += kConvNC) {
    conv_colgrad_block<kConvNV>(grad_out, weight, grad_cols, gblock.data(),
                                out_c, ckk, ohw, batch_cols, j);
  }
  for (; j + 8 <= j1; j += 8) {
    conv_colgrad_block<1>(grad_out, weight, grad_cols, gblock.data(), out_c,
                          ckk, ohw, batch_cols, j);
  }
  for (; j < j1; ++j) {
    const float* g = grad_out + nchw_offset(j, out_c, ohw);
    for (int kk = 0; kk < ckk; ++kk) {
      float acc = 0.0f;
      for (int oc = 0; oc < out_c; ++oc) {
        const float wv = weight[static_cast<std::size_t>(oc) * ckk + kk];
        if (wv == 0.0f) continue;
        acc = std::fma(wv, g[static_cast<std::size_t>(oc) * ohw], acc);
      }
      grad_cols[static_cast<std::size_t>(kk) * batch_cols + j] = acc;
    }
  }
}

// Depthwise stride-1 kernels work on zero-padded copies of each plane laid
// out row-major with the padded width `wp`. In that layout output (oy, ox)
// and tap (ky, kx) read padded cell (oy + ky) * wp + ox + kx, so the output
// at flat index j = oy * wp + ox is a 1-D correlation: sum over taps of
// w[tap] * pad[j + ky * wp + kx]. The flat loop runs whole 8-lane FMA
// blocks over every row at once (columns ox >= ow are computed and dropped),
// which keeps the search space's 2x2..6x6 planes vectorised. Padded zeros
// enter as exact +-0 addends. Other strides (and pads as wide as the
// kernel) run the scalar backend's kernels.
bool dw_flat_ok(const ConvGeometry& g) {
  return g.stride == 1 && g.pad < g.kh;
}

// Copies an h x w plane into the zeroed (h + top + bottom) x wp buffer `dst`
// at row `top`, column `left`.
void pad_plane(const float* src, int h, int w, float* dst, int wp, int top,
               int left) {
  for (int y = 0; y < h; ++y) {
    std::memcpy(dst + static_cast<std::size_t>(y + top) * wp + left,
                src + static_cast<std::size_t>(y) * w,
                static_cast<std::size_t>(w) * sizeof(float));
  }
}

// dst[j] = init + sum_{ky,kx} w[ky * k + kx] * src[j + ky * ld + kx] for
// j in [0, len), taps ky-then-kx ascending per lane. `dst` and the reads of
// `src` may run up to 7 floats past len (callers size their buffers so).
void flat_correlate(const float* src, int ld, const float* w, int k,
                    float init, float* dst, int len) {
  for (int j = 0; j < len; j += 8) {
    __m256 acc = _mm256_set1_ps(init);
    for (int ky = 0; ky < k; ++ky) {
      const float* row = src + j + static_cast<std::size_t>(ky) * ld;
      for (int kx = 0; kx < k; ++kx) {
        acc = _mm256_fmadd_ps(_mm256_broadcast_ss(w + ky * k + kx),
                              _mm256_loadu_ps(row + kx), acc);
      }
    }
    _mm256_storeu_ps(dst + j, acc);
  }
}

// Depthwise forward planes [p0, p1): pad, flat-correlate, drop the padded
// columns.
void dw_forward_planes(const float* in, const float* weight, const float* bias,
                       const ConvGeometry& g, float* out, std::int64_t p0,
                       std::int64_t p1) {
  if (!dw_flat_ok(g)) {
    scalar_backend().dw_forward_planes(in, weight, bias, g, out, p0, p1);
    return;
  }
  const int k = g.kh;
  const int wp = g.w + 2 * g.pad;
  const int len = g.oh * wp;
  std::vector<float> padded(
      static_cast<std::size_t>(g.h + 2 * g.pad) * wp + k + 8, 0.0f);
  std::vector<float> flat(static_cast<std::size_t>(len) + 8);
  for (std::int64_t p = p0; p < p1; ++p) {
    const int c = static_cast<int>(p % g.c);
    pad_plane(in + static_cast<std::size_t>(p) * g.h * g.w, g.h, g.w,
              padded.data(), wp, g.pad, g.pad);
    flat_correlate(padded.data(), wp,
                   weight + static_cast<std::size_t>(c) * k * k, k, bias[c],
                   flat.data(), len);
    float* y = out + static_cast<std::size_t>(p) * g.oh * g.ow;
    for (int oy = 0; oy < g.oh; ++oy) {
      std::memcpy(y + static_cast<std::size_t>(oy) * g.ow,
                  flat.data() + static_cast<std::size_t>(oy) * wp,
                  static_cast<std::size_t>(g.ow) * sizeof(float));
    }
  }
}

// Depthwise gradients of channels [c0, c1), samples ascending. Per plane:
// the bias gets one double sum; weight tap (ky, kx) gets one double dot of
// grad_out (widened to the padded width with zero columns) against the
// padded input shifted by ky * wp + kx; grad_input is the full correlation
// of grad_out, padded by k - 1 - pad, with the flipped filter — each input
// cell gathered once instead of scatter-added per tap.
void dw_backward_channels(const float* grad_out, const float* in,
                          const float* weight, const ConvGeometry& g,
                          float* grad_input, float* weight_grad,
                          float* bias_grad, int c0, int c1) {
  if (!dw_flat_ok(g)) {
    scalar_backend().dw_backward_channels(grad_out, in, weight, g, grad_input,
                                          weight_grad, bias_grad, c0, c1);
    return;
  }
  const int k = g.kh;
  const int taps = k * k;
  const int wp = g.w + 2 * g.pad;
  const int len = g.oh * wp;
  const int q = k - 1 - g.pad;  // grad_out offset of the full correlation
  const int wq = g.w + k - 1;   // its padded width
  const int glen = g.h * wq;
  std::vector<float> padded(
      static_cast<std::size_t>(g.h + 2 * g.pad) * wp + k + 8, 0.0f);
  std::vector<float> go_wide(static_cast<std::size_t>(len), 0.0f);
  std::vector<float> go_padded(
      static_cast<std::size_t>(g.h + k - 1) * wq + k + 8, 0.0f);
  std::vector<float> flipped(static_cast<std::size_t>(taps));
  std::vector<float> flat(static_cast<std::size_t>(glen) + 8);
  for (int c = c0; c < c1; ++c) {
    const float* w = weight + static_cast<std::size_t>(c) * taps;
    float* wg = weight_grad + static_cast<std::size_t>(c) * taps;
    for (int t = 0; t < taps; ++t) flipped[t] = w[taps - 1 - t];
    for (int n = 0; n < g.n; ++n) {
      const std::size_t p = static_cast<std::size_t>(n) * g.c + c;
      const float* go = grad_out + p * g.oh * g.ow;
      bias_grad[c] += static_cast<float>(sum_pd(go, g.oh * g.ow));
      pad_plane(in + p * g.h * g.w, g.h, g.w, padded.data(), wp, g.pad,
                g.pad);
      pad_plane(go, g.oh, g.ow, go_wide.data(), wp, 0, 0);
      for (int ky = 0; ky < k; ++ky) {
        for (int kx = 0; kx < k; ++kx) {
          wg[ky * k + kx] += static_cast<float>(
              dot_pd(go_wide.data(),
                     padded.data() + static_cast<std::size_t>(ky) * wp + kx,
                     len));
        }
      }
      pad_plane(go, g.oh, g.ow, go_padded.data(), wq, q, q);
      flat_correlate(go_padded.data(), wq, flipped.data(), k, 0.0f,
                     flat.data(), glen);
      float* gi = grad_input + p * g.h * g.w;
      for (int iy = 0; iy < g.h; ++iy) {
        const float* src = flat.data() + static_cast<std::size_t>(iy) * wq;
        float* dst = gi + static_cast<std::size_t>(iy) * g.w;
        for (int ix = 0; ix < g.w; ++ix) dst[ix] += src[ix];
      }
    }
  }
}

}  // namespace

const Backend* avx2_backend() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  static const bool supported = false;
#endif
  if (!supported) return nullptr;
  static const Backend kAvx2{
      "avx2",            gemm_rows,           im2col_rows,
      col2im_channels,   conv_forward_cols,   conv_backward_wgrad,
      conv_backward_colgrad, dw_forward_planes, dw_backward_channels,
  };
  return &kAvx2;
}

}  // namespace a3cs::tensor::backend

#else  // !A3CS_BACKEND_AVX2_TU

namespace a3cs::tensor::backend {

// Toolchain without AVX2/FMA support: the backend is never available.
const Backend* avx2_backend() { return nullptr; }

}  // namespace a3cs::tensor::backend

#endif
