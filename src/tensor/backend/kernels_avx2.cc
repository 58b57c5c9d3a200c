// AVX2/FMA kernel backend. This TU is the ONLY one compiled with
// -mavx2 -mfma (see src/tensor/CMakeLists.txt, enforced by the
// arch-intrinsics-scoped lint rule); when the toolchain lacks the flags the
// A3CS_BACKEND_AVX2_TU define is absent and the stub at the bottom reports
// the backend unavailable. Registration is additionally gated at runtime on
// __builtin_cpu_supports("avx2"/"fma"), so a binary built here still runs
// (on the scalar backend) on older x86 hosts.
//
// The table holds the three kernels where FMA wins: the packed 6x16 GEMM
// below, and the conv forward and column-gradient tiles of conv_tiles.h on
// an 8-lane FMA policy. Every other kernel has one implementation, the
// scalar one of backend.h, which both backends run.
//
// Numerics: deterministic at every thread count — shard boundaries come from
// the caller and every per-element reduction runs in a fixed order (kk
// ascending in GEMM and the conv forward, oc ascending in the column
// gradient) — but NOT bit-identical to the scalar backend: FMA fuses the
// multiply-add rounding step. Cross-backend agreement is enforced (under the
// ULP tolerance of tensor/backend/check.h) by tests/backend_check_test.cc,
// which also pins the conv entries bit for bit to fused row loops.
#include "tensor/backend/backend.h"

#if defined(A3CS_BACKEND_AVX2_TU)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/backend/conv_tiles.h"

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
  const std::size_t a_floats = static_cast<std::size_t>(strips) * k * kMR;
  float* packed_a = static_cast<float*>(workspace(
      sizeof(float) * (a_floats + static_cast<std::size_t>(k) * kNR)));
  float* packed_b = packed_a + a_floats;
  for (int s = 0; s < strips; ++s) {
    pack_a_strip(a, trans_a, a_cols, r0 + s * kMR, r1, k,
                 packed_a + static_cast<std::size_t>(s) * k * kMR);
  }

  const __m256 alpha_v = _mm256_set1_ps(alpha);
  const __m256 beta_v = _mm256_set1_ps(beta);
  for (int j0 = 0; j0 < n; j0 += kNR) {
    const int nr = std::min(kNR, n - j0);
    pack_b_panel(b, trans_b, b_cols, j0, n, k, packed_b);
    for (int s = 0; s < strips; ++s) {
      const int i0 = r0 + s * kMR;
      const int mr = std::min(kMR, r1 - i0);
      micro_6x16(packed_a + static_cast<std::size_t>(s) * k * kMR, packed_b, k,
                 c + static_cast<std::size_t>(i0) * n + j0, n, mr, nr, alpha_v,
                 beta_v, alpha, beta);
    }
  }
}

// The conv tiles of conv_tiles.h on 8-lane ymm vectors, every multiply-add
// one fused step: _mm256_fmadd_ps in the tiles, std::fma in the column tail.
struct Avx2Lanes {
  using V = __m256;
  static constexpr int kLanes = 8;
  static V load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
  static V splat(float x) { return _mm256_set1_ps(x); }
  static V madd(V w, V x, V acc) { return _mm256_fmadd_ps(w, x, acc); }
  static float madd(float w, float x, float acc) { return std::fma(w, x, acc); }
};

}  // namespace

const Backend* avx2_backend() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  static const bool supported = false;
#endif
  if (!supported) return nullptr;
  static const Backend kAvx2{"avx2", gemm_rows,
                             conv_forward_cols<Avx2Lanes>,
                             conv_backward_colgrad<Avx2Lanes>};
  return &kAvx2;
}

}  // namespace a3cs::tensor::backend

#else  // !A3CS_BACKEND_AVX2_TU

namespace a3cs::tensor::backend {

// Toolchain without AVX2/FMA support: the backend is never available.
const Backend* avx2_backend() { return nullptr; }

}  // namespace a3cs::tensor::backend

#endif
