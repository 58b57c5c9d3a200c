// The blocked-scalar reference backend: the portable kernels moved verbatim
// from tensor/ops.cc and nn/layers.cc, plus the depthwise kernels and the
// conv register tiles, which restructure the loops but keep every
// per-element operation order. Compiled for the baseline ISA (no
// -mavx2/-mfma) at -O3 with -ffp-contract=off (src/CMakeLists.txt): -O3
// never reassociates float math, and with contraction off every
// `a += b * c` stays a rounded multiply then a rounded add on any target.
// So on every host A3CS_BACKEND=scalar is bit-identical to the historical
// results at every thread count.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/backend/backend.h"

namespace a3cs::tensor::backend {

namespace {

// The register tiles use GCC/Clang vector extensions rather than plain
// loops: a v4f multiply or add is four lane-wise IEEE operations on the
// baseline ISA, and the tile shape is fixed in the source. Left to GCC 12's
// -O3 loop vectorizer, the plain-loop GEMM tile ran 2-3x slower than at -O2
// and the depthwise loops 1.2-2.5x slower, so this TU is built with
// -fno-tree-loop-vectorize; -O3 stays for the complete unrolling that keeps
// a tile in registers. With -ffp-contract=off, `acc += w * c` never becomes
// an FMA, even on a target that has one.
typedef float v4f __attribute__((vector_size(16)));
typedef float v2f __attribute__((vector_size(8)));
typedef double v2d __attribute__((vector_size(16)));
typedef double v4d __attribute__((vector_size(32)));

inline v4f load4(const float* p) {
  v4f v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, v4f v) { std::memcpy(p, &v, sizeof v); }

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
// the constant-bound loops fully unroll and the accumulator tile lives in
// registers for the whole kk reduction, so each A value and B row
// segment is reused kMR times and C is touched once instead of k times.
// (Variable-bound edge tiles spill the accumulator and run ~3x slower.)
template <bool TransA>
inline void micro_tile_full(const float* a, const float* b, float* c, int i0,
                            int j0, int k, int n, float alpha, float beta,
                            int a_cols, int b_cols) {
  v4f acc[kMR][kNR / 4] = {};
  for (int kk = 0; kk < k; ++kk) {
    const float* brow = b + static_cast<std::size_t>(kk) * b_cols + j0;
    const v4f b0 = load4(brow);
    const v4f b1 = load4(brow + 4);
    for (int r = 0; r < kMR; ++r) {
      const float av = a_at(a, TransA, a_cols, i0 + r, kk);
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  float tile[kMR][kNR];
  std::memcpy(tile, acc, sizeof tile);
  store_tile(tile, c, i0, j0, kMR, kNR, n, alpha, beta);
}

// B^T dot products of a full row panel against C columns jc and jc + 1,
// stored at tile columns j and j + 1: kMR x 2 chains, each still
// sum = 0; sum += a * b over kk ascending, run interleaved so their adds
// overlap instead of each waiting on its own previous add.
inline void dot_pair_bt(const float* a, const float* b, float (*acc)[kNR],
                        int i0, int jc, int j, int k, int a_cols,
                        int b_cols) {
  const float* b0 = b + static_cast<std::size_t>(jc) * b_cols;
  const float* b1 = b0 + b_cols;
  const float* arow = a + static_cast<std::size_t>(i0) * a_cols;
  float s0[kMR] = {};
  float s1[kMR] = {};
  for (int kk = 0; kk < k; ++kk) {
    for (int r = 0; r < kMR; ++r) {
      const float av = arow[static_cast<std::size_t>(r) * a_cols + kk];
      s0[r] += av * b0[kk];
      s1[r] += av * b1[kk];
    }
  }
  for (int r = 0; r < kMR; ++r) {
    acc[r][j] = s0[r];
    acc[r][j + 1] = s1[r];
  }
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
        int j = 0;
        if (!trans_a && mr == kMR) {
          for (; j + 2 <= nr; j += 2) {
            dot_pair_bt(a, b, acc, i0, j0 + j, j, k, a_cols, b_cols);
          }
        }
        for (; j < nr; ++j) {
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

// ---- Conv register tiles over batch columns ----------------------------
//
// `cols` is (ckk x batch_cols) with samples contiguous along the column axis
// (column j = s * cps + p), so a tile spans batch columns of several samples
// at once: a cps = 4 conv row is too short to vectorize, a 16-column batch
// block is not. Every lane is one output element and runs exactly the row
// loop's operation sequence (forward: bias, then `acc += w * c` for kk
// ascending; colgrad: +0, then `acc += w * g` for oc ascending; both skip
// zero weights), so the tiles are bit-identical to the row loops whatever
// the shard boundaries and thread count.
//
// The zero-weight skip is part of the result, not only of the time: with a
// -0.0 bias and a skipped w == 0, the output stays -0.0 where
// -0.0 + (+0 * c) would give +0, and a skipped w == 0 against an inf column
// keeps the output finite where 0 * inf would give NaN.
constexpr int kConvMR = 4;  // out-channels (forward) or ckk rows (colgrad)
constexpr int kConvNV = 4;  // v4f vectors per tile row: 16 batch columns
constexpr int kConvNC = 4 * kConvNV;

// A v4f widened to doubles as two v2d halves. Accumulators stay v2d: GCC
// keeps a 32-byte v4d in memory on a 16-byte-vector ISA, so only the
// conversion goes through one (where it lowers to two cvtps2pd).
struct Wide {
  v2d lo, hi;
};

inline void widen_add(Wide& acc, v4f x) {
  const v4d d = __builtin_convertvector(x, v4d);
  acc.lo += __builtin_shufflevector(d, d, 0, 1);
  acc.hi += __builtin_shufflevector(d, d, 2, 3);
}

inline v4f narrow(const Wide& x) {
  const v2f lo = __builtin_convertvector(x.lo, v2f);
  const v2f hi = __builtin_convertvector(x.hi, v2f);
  return __builtin_shufflevector(lo, hi, 0, 1, 2, 3);
}

// Offset of batch column j of out-channel 0 in an (n, out_c, cps) tensor.
inline std::size_t nchw_offset(int j, int out_c, int cps) {
  const int s = j / cps;
  return static_cast<std::size_t>(s) * out_c * cps + (j - s * cps);
}

// Forward tile: out-channels [oc0, oc0 + MR) x batch columns
// [j0, j0 + 4 * NV), scatter-stored into the (n, oc, p) output.
template <int MR, int NV>
inline void conv_fwd_tile(const float* weight, const float* bias,
                          const float* cols, float* out, int out_c, int ckk,
                          int cps, int batch_cols, int oc0, int j0) {
  v4f acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    const float b = bias[oc0 + r];  // splat, not 0 + b: keeps a -0.0 bias
    for (int v = 0; v < NV; ++v) acc[r][v] = v4f{b, b, b, b};
  }
  const float* w = weight + static_cast<std::size_t>(oc0) * ckk;
  const float* c = cols + j0;
  for (int kk = 0; kk < ckk; ++kk, c += batch_cols) {
    v4f cv[NV];
    for (int v = 0; v < NV; ++v) cv[v] = load4(c + 4 * v);
    for (int r = 0; r < MR; ++r) {
      const float wv = w[static_cast<std::size_t>(r) * ckk + kk];
      if (wv == 0.0f) continue;
      for (int v = 0; v < NV; ++v) acc[r][v] += wv * cv[v];
    }
  }
  for (int v = 0; v < NV; ++v) {
    for (int l = 0; l < 4; ++l) {
      float* o = out + nchw_offset(j0 + 4 * v + l, out_c, cps) +
                 static_cast<std::size_t>(oc0) * cps;
      for (int r = 0; r < MR; ++r) {
        o[static_cast<std::size_t>(r) * cps] = acc[r][v][l];
      }
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

// Conv output batch columns [j0, j1) of every out-channel: 16-column tiles,
// then 4-column tiles, then single columns, all with the same per-output
// sequence.
void conv_forward_cols(const float* weight, const float* bias,
                       const float* cols, float* out, int out_c, int ckk,
                       int cols_per_sample, int batch_cols, int j0, int j1) {
  const int cps = cols_per_sample;
  int j = j0;
  for (; j + kConvNC <= j1; j += kConvNC) {
    conv_fwd_block<kConvNV>(weight, bias, cols, out, out_c, ckk, cps,
                            batch_cols, j);
  }
  for (; j + 4 <= j1; j += 4) {
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
        acc += wv * cols[static_cast<std::size_t>(kk) * batch_cols + j];
      }
      o[static_cast<std::size_t>(oc) * cps] = acc;
    }
  }
}

// Weight/bias gradients of out-channels [oc0, oc1). Four out-channels ride
// the four lanes of a v4f (grad_out gathered once per block into
// lane-interleaved batch columns); each (oc, kk) lane keeps the row loop's
// sequence: per sample a double sum of float products over the sample's
// columns ascending, then one float add into the gradient, samples
// ascending.
template <int KB>
void conv_wgrad_rows(const v4f* g4, const float* cols, float* weight_grad,
                     int n, int ckk, int cps, int batch_cols, int oc0, int mr,
                     int kk0) {
  v4f w[KB] = {};
  for (int r = 0; r < mr; ++r) {
    const float* wrow = weight_grad + static_cast<std::size_t>(oc0 + r) * ckk;
    for (int kb = 0; kb < KB; ++kb) w[kb][r] = wrow[kk0 + kb];
  }
  const float* c = cols + static_cast<std::size_t>(kk0) * batch_cols;
  for (int s = 0, j = 0; s < n; ++s) {
    Wide acc[KB] = {};
    for (const int end = j + cps; j < end; ++j) {
      const v4f g = g4[j];
      for (int kb = 0; kb < KB; ++kb) {
        const float cv = c[static_cast<std::size_t>(kb) * batch_cols + j];
        widen_add(acc[kb], g * cv);
      }
    }
    for (int kb = 0; kb < KB; ++kb) w[kb] += narrow(acc[kb]);
  }
  for (int r = 0; r < mr; ++r) {
    float* wrow = weight_grad + static_cast<std::size_t>(oc0 + r) * ckk;
    for (int kb = 0; kb < KB; ++kb) wrow[kk0 + kb] = w[kb][r];
  }
}

void conv_backward_wgrad(const float* grad_out, const float* cols,
                         float* weight_grad, float* bias_grad, int n,
                         int out_c, int ckk, int ohw, int batch_cols, int oc0,
                         int oc1) {
  std::vector<v4f> g4(static_cast<std::size_t>(batch_cols));
  for (int ob = oc0; ob < oc1; ob += 4) {
    const int mr = std::min(4, oc1 - ob);
    // Lane r of batch column j holds grad_out[s, ob + r, p]; unused lanes 0.
    for (int j = 0; j < batch_cols; ++j) {
      const float* g = grad_out + nchw_offset(j, out_c, ohw) +
                       static_cast<std::size_t>(ob) * ohw;
      v4f v = {};
      for (int r = 0; r < mr; ++r) v[r] = g[static_cast<std::size_t>(r) * ohw];
      g4[static_cast<std::size_t>(j)] = v;
    }
    v4f bg = {};
    for (int r = 0; r < mr; ++r) bg[r] = bias_grad[ob + r];
    for (int s = 0, j = 0; s < n; ++s) {
      Wide acc = {};
      for (const int end = j + ohw; j < end; ++j) {
        widen_add(acc, g4[static_cast<std::size_t>(j)]);
      }
      bg += narrow(acc);
    }
    for (int r = 0; r < mr; ++r) bias_grad[ob + r] = bg[r];
    int kk = 0;
    for (; kk + 4 <= ckk; kk += 4) {
      conv_wgrad_rows<4>(g4.data(), cols, weight_grad, n, ckk, ohw,
                         batch_cols, ob, mr, kk);
    }
    for (; kk < ckk; ++kk) {
      conv_wgrad_rows<1>(g4.data(), cols, weight_grad, n, ckk, ohw,
                         batch_cols, ob, mr, kk);
    }
  }
}

// Column-gradient tile: ckk rows [kk0, kk0 + MR) x the gathered batch
// columns of `gblock` ((out_c x 4 * NV), row-major).
template <int MR, int NV>
inline void conv_colgrad_tile(const float* gblock, const float* weight,
                              float* grad_cols, int out_c, int ckk,
                              int batch_cols, int kk0, int j0) {
  v4f acc[MR][NV] = {};  // +0, like the row loop's zero fill
  for (int oc = 0; oc < out_c; ++oc) {
    v4f gv[NV];
    for (int v = 0; v < NV; ++v) {
      gv[v] = load4(gblock + static_cast<std::size_t>(oc) * 4 * NV + 4 * v);
    }
    const float* w = weight + static_cast<std::size_t>(oc) * ckk + kk0;
    for (int r = 0; r < MR; ++r) {
      const float wv = w[r];
      if (wv == 0.0f) continue;
      for (int v = 0; v < NV; ++v) acc[r][v] += wv * gv[v];
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* gc = grad_cols + static_cast<std::size_t>(kk0 + r) * batch_cols + j0;
    for (int v = 0; v < NV; ++v) store4(gc + 4 * v, acc[r][v]);
  }
}

template <int NV>
void conv_colgrad_block(const float* grad_out, const float* weight,
                        float* grad_cols, float* gblock, int out_c, int ckk,
                        int cps, int batch_cols, int j0) {
  constexpr int nc = 4 * NV;
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

// Column gradient of batch columns [j0, j1):
// grad_cols[:, j] = W^T(ckk x OC) @ grad_out[s, :, p] (overwrites).
void conv_backward_colgrad(const float* grad_out, const float* weight,
                           float* grad_cols, int out_c, int ckk, int ohw,
                           int batch_cols, int j0, int j1) {
  std::vector<float> gblock(static_cast<std::size_t>(out_c) * kConvNC);
  int j = j0;
  for (; j + kConvNC <= j1; j += kConvNC) {
    conv_colgrad_block<kConvNV>(grad_out, weight, grad_cols, gblock.data(),
                                out_c, ckk, ohw, batch_cols, j);
  }
  for (; j + 4 <= j1; j += 4) {
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
        acc += wv * g[static_cast<std::size_t>(oc) * ohw];
      }
      grad_cols[static_cast<std::size_t>(kk) * batch_cols + j] = acc;
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
      col2im_channels,   conv_forward_cols,   conv_backward_wgrad,
      conv_backward_colgrad, dw_forward_planes, dw_backward_channels,
  };
  return kScalar;
}

}  // namespace a3cs::tensor::backend
