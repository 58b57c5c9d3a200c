// AVX2/FMA kernel backend. This TU is the ONLY one compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt, enforced by the
// arch-intrinsics-scoped lint rule); when the toolchain lacks the flags the
// A3CS_BACKEND_AVX2_TU define is absent and the stub at the bottom reports
// the backend unavailable. Registration is additionally gated at runtime on
// __builtin_cpu_supports("avx2"/"fma"), so a binary built here still runs
// (on the scalar backend) on older x86 hosts.
//
// The table is the scalar backend's with three entries replaced: the GEMM,
// the conv forward and the conv column gradient. im2col, col2im, the conv
// weight gradient and the depthwise kernels are the scalar ones: at the
// search's 2x2-12x12 maps they beat every AVX2 form timed against them
// (docs/PERFORMANCE.md).
//
// Numerics: deterministic at every thread count — shard boundaries come from
// the caller and every per-element reduction runs in a fixed order (kk
// ascending in GEMM, oc ascending in the column gradient) — but the three
// AVX2 entries are NOT bit-identical to the scalar backend: FMA fuses the
// multiply-add rounding step. Cross-backend agreement is enforced (under the
// ULP tolerance of tensor/backend/check.h) by tests/backend_check_test.cc.
#include "tensor/backend/backend.h"

#if defined(A3CS_BACKEND_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
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

}  // namespace

const Backend* avx2_backend() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  static const bool supported = false;
#endif
  if (!supported) return nullptr;
  static const Backend kAvx2 = [] {
    Backend b = scalar_backend();
    b.name = "avx2";
    b.gemm_rows = gemm_rows;
    b.conv_forward_cols = conv_forward_cols;
    b.conv_backward_colgrad = conv_backward_colgrad;
    return b;
  }();
  return &kAvx2;
}

}  // namespace a3cs::tensor::backend

#else  // !A3CS_BACKEND_AVX2_TU

namespace a3cs::tensor::backend {

// Toolchain without AVX2/FMA support: the backend is never available.
const Backend* avx2_backend() { return nullptr; }

}  // namespace a3cs::tensor::backend

#endif
