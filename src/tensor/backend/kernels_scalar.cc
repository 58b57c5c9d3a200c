// The blocked-scalar reference backend and the kernels both backends
// share: the register-tiled GEMM, the conv forward and column-gradient tiles
// of conv_tiles.h on 4-lane vectors, and the one implementation of im2col,
// col2im, the conv weight gradient and the depthwise lane groups (backend.h
// declares those as plain functions). Each keeps the per-element operation
// order of the plain loops it replaced. Compiled for the baseline ISA (no
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
#include "tensor/backend/conv_tiles.h"

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

// The conv tiles of conv_tiles.h on v4f vectors: every multiply-add is a
// rounded multiply then a rounded add, the row loops' sequence.
struct Lanes4 {
  using V = v4f;
  static constexpr int kLanes = 4;
  static V load(const float* p) { return load4(p); }
  static void store(float* p, V v) { store4(p, v); }
  static V splat(float x) { return V{x, x, x, x}; }
  static V madd(V w, V x, V acc) { return acc + w * x; }
  static float madd(float w, float x, float acc) { return acc + w * x; }
};

// A v4f widened to doubles as two v2d halves, for the double sums of the
// weight and bias gradients. Accumulators stay v2d: GCC keeps a 32-byte v4d
// in memory on a 16-byte-vector ISA, so only the conversion goes through one
// (where it lowers to two cvtps2pd).
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

// ---- Depthwise tiles, lanes over channels ------------------------------
//
// A depthwise output reduces over one channel's K x K window only, and the
// search maps (6x6, 3x3, 2x2) are too narrow for lanes along a row, nor
// does batch 1 (evaluation) leave samples to span. What every search shape
// does have is channels in multiples of 8, so a lane group is kDwLanes
// adjacent channels of one sample: their planes are repacked to an
// interleaved (h, w, lane) layout and their weight rows to (tap, lane), and
// each lane, one channel, runs exactly the plane loop's operation sequence.
// A range whose channels do not fill a whole group (a channel count that is
// not a multiple of kDwLanes, or a shard cut inside a group) runs the plane
// loop for the channels left over.
constexpr int kDwNV = kDwLanes / 4;  // v4f vectors per lane group
constexpr int kDwMaxTaps = kMaxDwKernel * kMaxDwKernel;

typedef int v4i __attribute__((vector_size(16)));

// Transposes the 4x4 block whose rows are r[0..3] in place.
inline void transpose4(v4f (&r)[4]) {
  const v4f t0 = __builtin_shufflevector(r[0], r[1], 0, 4, 1, 5);
  const v4f t1 = __builtin_shufflevector(r[0], r[1], 2, 6, 3, 7);
  const v4f t2 = __builtin_shufflevector(r[2], r[3], 0, 4, 1, 5);
  const v4f t3 = __builtin_shufflevector(r[2], r[3], 2, 6, 3, 7);
  r[0] = __builtin_shufflevector(t0, t2, 0, 1, 4, 5);
  r[1] = __builtin_shufflevector(t0, t2, 2, 3, 6, 7);
  r[2] = __builtin_shufflevector(t1, t3, 0, 1, 4, 5);
  r[3] = __builtin_shufflevector(t1, t3, 2, 3, 6, 7);
}

// dst[i * kDwNV + v][l] = src[(4 * v + l) * stride + i] for i < len: the
// rows of kDwLanes channels, `stride` floats apart, interleaved lane-wise,
// 4x4 blocks at a time.
void dw_interleave(const float* src, std::size_t stride, int len, v4f* dst) {
  int i = 0;
  for (; i + 4 <= len; i += 4) {
    for (int v = 0; v < kDwNV; ++v) {
      const float* s = src + 4 * v * stride + i;
      v4f r[4] = {load4(s), load4(s + stride), load4(s + 2 * stride),
                  load4(s + 3 * stride)};
      transpose4(r);
      for (int j = 0; j < 4; ++j) dst[(i + j) * kDwNV + v] = r[j];
    }
  }
  for (; i < len; ++i) {
    for (int v = 0; v < kDwNV; ++v) {
      const float* s = src + 4 * v * stride + i;
      dst[i * kDwNV + v] = v4f{s[0], s[stride], s[2 * stride], s[3 * stride]};
    }
  }
}

// The inverse of dw_interleave.
void dw_deinterleave(const v4f* src, int len, float* dst, std::size_t stride) {
  int i = 0;
  for (; i + 4 <= len; i += 4) {
    for (int v = 0; v < kDwNV; ++v) {
      v4f r[4];
      for (int j = 0; j < 4; ++j) r[j] = src[(i + j) * kDwNV + v];
      transpose4(r);
      float* d = dst + 4 * v * stride + i;
      for (int l = 0; l < 4; ++l) store4(d + l * stride, r[l]);
    }
  }
  for (; i < len; ++i) {
    for (int v = 0; v < kDwNV; ++v) {
      const v4f x = src[i * kDwNV + v];
      float* d = dst + 4 * v * stride + i;
      for (int l = 0; l < 4; ++l) d[l * stride] = x[l];
    }
  }
}

// The valid taps [k0, k1) of a window starting at input index i0 of an
// axis of `extent` cells.
struct TapSpan {
  int k0, k1;
};

inline TapSpan valid_taps(int i0, int k, int extent) {
  return TapSpan{std::max(0, -i0), std::min(k, extent - i0)};
}

// One depthwise output plane: acc = b, then the valid taps ky-then-kx
// ascending (invalid taps skipped, as the bounds-checked loop skipped
// them).
void dw_forward_plane(const float* x, const float* w, float b,
                      const ConvGeometry& g, float* y) {
  const int k = g.kh;
  for (int oy = 0; oy < g.oh; ++oy) {
    const int iy0 = oy * g.stride - g.pad;
    const TapSpan ky = valid_taps(iy0, k, g.h);
    float* yr = y + static_cast<std::size_t>(oy) * g.ow;
    for (int ox = 0; ox < g.ow; ++ox) {
      const int ix0 = ox * g.stride - g.pad;
      const TapSpan kx = valid_taps(ix0, k, g.w);
      float acc = b;
      for (int r = ky.k0; r < ky.k1; ++r) {
        const float* xr = x + static_cast<std::size_t>(iy0 + r) * g.w;
        const float* wr = w + r * k;
        for (int t = kx.k0; t < kx.k1; ++t) acc += wr[t] * xr[ix0 + t];
      }
      yr[ox] = acc;
    }
  }
}

// The output planes of one lane group: kDwLanes adjacent channels of one
// sample, x and y at the first channel's plane, w and b at its weight row
// and bias.
void dw_forward_group(const float* x, const float* w, const float* b,
                      const ConvGeometry& g, float* y) {
  const int k = g.kh;
  const int hw = g.h * g.w;
  const int ohw = g.oh * g.ow;
  v4f wi[kDwMaxTaps * kDwNV];
  dw_interleave(w, k * k, k * k, wi);
  v4f* xi = static_cast<v4f*>(
      workspace(sizeof(v4f) * static_cast<std::size_t>(hw + ohw) * kDwNV));
  v4f* yi = xi + static_cast<std::size_t>(hw) * kDwNV;
  dw_interleave(x, hw, hw, xi);
  v4f bias[kDwNV];
  for (int v = 0; v < kDwNV; ++v) bias[v] = load4(b + 4 * v);  // keeps -0.0
  for (int oy = 0; oy < g.oh; ++oy) {
    const int iy0 = oy * g.stride - g.pad;
    const TapSpan ky = valid_taps(iy0, k, g.h);
    for (int ox = 0; ox < g.ow; ++ox) {
      const int ix0 = ox * g.stride - g.pad;
      const TapSpan kx = valid_taps(ix0, k, g.w);
      const int cell = iy0 * g.w + ix0;
      v4f acc[kDwNV];
      for (int v = 0; v < kDwNV; ++v) acc[v] = bias[v];
      for (int r = ky.k0; r < ky.k1; ++r) {
        for (int t = kx.k0; t < kx.k1; ++t) {
          const v4f* wt = wi + (r * k + t) * kDwNV;
          const v4f* xt = xi + (cell + r * g.w + t) * kDwNV;
          for (int v = 0; v < kDwNV; ++v) acc[v] += wt[v] * xt[v];
        }
      }
      v4f* o = yi + (oy * g.ow + ox) * kDwNV;
      for (int v = 0; v < kDwNV; ++v) o[v] = acc[v];
    }
  }
  dw_deinterleave(yi, ohw, y, ohw);
}

// Gradients of one channel over every sample, the serial visit order: n,
// oy, ox ascending, then the valid taps. Weight row c and bias[c]
// accumulate in locals (the same float add sequence) and are stored once:
// neighbouring channels' rows share cache lines, and shards on other
// threads write them.
void dw_backward_channel(const float* grad_out, const float* in,
                         const float* weight, const ConvGeometry& g,
                         float* grad_input, float* weight_grad,
                         float* bias_grad, int c) {
  const int k = g.kh;
  const int kk = k * k;
  const float* w = weight + static_cast<std::size_t>(c) * kk;
  float* wg_out = weight_grad + static_cast<std::size_t>(c) * kk;
  float wg[kDwMaxTaps];
  std::copy(wg_out, wg_out + kk, wg);
  float bg = bias_grad[c];
  for (int n = 0; n < g.n; ++n) {
    const std::size_t p = static_cast<std::size_t>(n) * g.c + c;
    const float* x = in + p * g.h * g.w;
    float* gi = grad_input + p * g.h * g.w;
    const float* go_plane = grad_out + p * g.oh * g.ow;
    double bias_acc = 0.0;
    for (int oy = 0; oy < g.oh; ++oy) {
      const int iy0 = oy * g.stride - g.pad;
      const TapSpan ky = valid_taps(iy0, k, g.h);
      const float* gor = go_plane + static_cast<std::size_t>(oy) * g.ow;
      for (int ox = 0; ox < g.ow; ++ox) {
        const float go = gor[ox];
        bias_acc += go;
        if (go == 0.0f) continue;
        const int ix0 = ox * g.stride - g.pad;
        const TapSpan kx = valid_taps(ix0, k, g.w);
        for (int r = ky.k0; r < ky.k1; ++r) {
          const std::size_t row = static_cast<std::size_t>(iy0 + r) * g.w;
          const float* xr = x + row;
          float* gir = gi + row;
          const float* wr = w + r * k;
          float* wgr = wg + r * k;
          for (int t = kx.k0; t < kx.k1; ++t) {
            wgr[t] += go * xr[ix0 + t];
            gir[ix0 + t] += go * wr[t];
          }
        }
      }
    }
    bg += static_cast<float>(bias_acc);
  }
  std::copy(wg, wg + kk, wg_out);
  bias_grad[c] = bg;
}

// Gradients of the lane group of channels [c, c + kDwLanes): each lane runs
// dw_backward_channel's sequence. The go == 0 skip is a lane select (the
// accumulator keeps its value, so a -0.0 stays -0.0 and 0 * inf never
// lands); a cell where every lane's go is 0 is skipped whole. grad_input
// is pre-zeroed, so each plane's sums start from +0 in the workspace.
void dw_backward_group(const float* grad_out, const float* in,
                       const float* weight, const ConvGeometry& g,
                       float* grad_input, float* weight_grad,
                       float* bias_grad, int c) {
  const int k = g.kh;
  const int kk = k * k;
  const int hw = g.h * g.w;
  const int ohw = g.oh * g.ow;
  v4f wi[kDwMaxTaps * kDwNV];
  v4f wgi[kDwMaxTaps * kDwNV];
  dw_interleave(weight + static_cast<std::size_t>(c) * kk, kk, kk, wi);
  dw_interleave(weight_grad + static_cast<std::size_t>(c) * kk, kk, kk, wgi);
  v4f bg[kDwNV];
  for (int v = 0; v < kDwNV; ++v) bg[v] = load4(bias_grad + c + 4 * v);
  v4f* xi = static_cast<v4f*>(
      workspace(sizeof(v4f) * static_cast<std::size_t>(2 * hw + ohw) * kDwNV));
  v4f* gii = xi + static_cast<std::size_t>(hw) * kDwNV;
  v4f* goi = gii + static_cast<std::size_t>(hw) * kDwNV;
  for (int n = 0; n < g.n; ++n) {
    const std::size_t p = static_cast<std::size_t>(n) * g.c + c;
    dw_interleave(in + p * hw, hw, hw, xi);
    dw_interleave(grad_out + p * ohw, ohw, ohw, goi);
    std::fill(gii, gii + static_cast<std::size_t>(hw) * kDwNV, v4f{});
    Wide bias_acc[kDwNV] = {};
    for (int oy = 0; oy < g.oh; ++oy) {
      const int iy0 = oy * g.stride - g.pad;
      const TapSpan ky = valid_taps(iy0, k, g.h);
      for (int ox = 0; ox < g.ow; ++ox) {
        const v4f* go = goi + (oy * g.ow + ox) * kDwNV;
        v4i live[kDwNV];
        v4i any = {};
        for (int v = 0; v < kDwNV; ++v) {
          widen_add(bias_acc[v], go[v]);
          live[v] = go[v] != v4f{};
          any |= live[v];
        }
        if ((any[0] | any[1] | any[2] | any[3]) == 0) continue;
        const int ix0 = ox * g.stride - g.pad;
        const TapSpan kx = valid_taps(ix0, k, g.w);
        const int cell = iy0 * g.w + ix0;
        for (int r = ky.k0; r < ky.k1; ++r) {
          for (int t = kx.k0; t < kx.k1; ++t) {
            v4f* wgt = wgi + (r * k + t) * kDwNV;
            const v4f* wt = wi + (r * k + t) * kDwNV;
            const v4f* xt = xi + (cell + r * g.w + t) * kDwNV;
            v4f* git = gii + (cell + r * g.w + t) * kDwNV;
            for (int v = 0; v < kDwNV; ++v) {
              wgt[v] = live[v] ? wgt[v] + go[v] * xt[v] : wgt[v];
              git[v] = live[v] ? git[v] + go[v] * wt[v] : git[v];
            }
          }
        }
      }
    }
    dw_deinterleave(gii, hw, grad_input + p * hw, hw);
    for (int v = 0; v < kDwNV; ++v) bg[v] += narrow(bias_acc[v]);
  }
  dw_deinterleave(wgi, kk, weight_grad + static_cast<std::size_t>(c) * kk, kk);
  for (int v = 0; v < kDwNV; ++v) store4(bias_grad + c + 4 * v, bg[v]);
}

}  // namespace

void* workspace(std::size_t bytes) {
  struct alignas(32) Block {
    unsigned char storage[32];
  };
  thread_local std::vector<Block> ws;
  const std::size_t blocks = (bytes + sizeof(Block) - 1) / sizeof(Block);
  if (ws.size() < blocks) ws.resize(blocks);
  return ws.data();
}

// Fills column-matrix rows [cr0, cr1); each row is one (channel, ky, kx)
// triple, filled column-major over (n, oy, ox) with zero padding. A 1x1,
// stride-1, unpadded conv's row is its channel's planes, copied whole.
// Otherwise a row computes once the output rectangle [y_lo, y_hi) x
// [x_lo, x_hi) whose input cells are in bounds (the same for every sample),
// zero-fills the whole row in one pass if any cell lies outside it, and
// copies the rectangle with no per-element check. The short copy loops stay
// inline; per-segment library copies made 2x2 and 3x3 maps slower than the
// checked loop.
void im2col_rows(const float* in, const ConvGeometry& g, float* out, int cr0,
                 int cr1) {
  const int hw = g.h * g.w;
  const int ohw = g.oh * g.ow;
  const int col_cols = g.n * ohw;
  if (g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad == 0) {
    for (int cr = cr0; cr < cr1; ++cr) {
      float* orow = out + static_cast<std::size_t>(cr) * col_cols;
      for (int n = 0; n < g.n; ++n) {
        const float* img = in + (static_cast<std::size_t>(n) * g.c + cr) * hw;
        std::copy(img, img + hw, orow + static_cast<std::size_t>(n) * ohw);
      }
    }
    return;
  }
  const int s = g.stride;
  // Output index o maps to input index o * s - pad + off, which is >= 0
  // from o = first(pad - off) on and < extent until first(extent + pad -
  // off), where first(v) = ceil(v / s) clamped at 0.
  const auto first = [s](int v) { return v <= 0 ? 0 : (v + s - 1) / s; };
  for (int cr = cr0; cr < cr1; ++cr) {
    const int kw_off = cr % g.kw;
    const int kh_off = (cr / g.kw) % g.kh;
    const int ch = cr / (g.kw * g.kh);
    float* orow = out + static_cast<std::size_t>(cr) * col_cols;
    const int x_lo = std::min(g.ow, first(g.pad - kw_off));
    const int x_hi =
        std::max(x_lo, std::min(g.ow, first(g.w + g.pad - kw_off)));
    const int y_lo = std::min(g.oh, first(g.pad - kh_off));
    const int y_hi =
        std::max(y_lo, std::min(g.oh, first(g.h + g.pad - kh_off)));
    if (x_lo > 0 || x_hi < g.ow || y_lo > 0 || y_hi < g.oh) {
      std::fill(orow, orow + col_cols, 0.0f);
    }
    if (x_lo == x_hi || y_lo == y_hi) continue;
    const int width = x_hi - x_lo;
    const std::ptrdiff_t src_step = static_cast<std::ptrdiff_t>(s) * g.w;
    const float* src0 = in + static_cast<std::size_t>(ch) * hw +
                        static_cast<std::ptrdiff_t>(y_lo * s - g.pad + kh_off) *
                            g.w +
                        (x_lo * s - g.pad + kw_off);
    for (int n = 0; n < g.n; ++n) {
      const float* src = src0 + static_cast<std::size_t>(n) * g.c * hw;
      float* dst = orow + static_cast<std::size_t>(n) * ohw +
                   static_cast<std::size_t>(y_lo) * g.ow + x_lo;
      for (int oy = y_lo; oy < y_hi; ++oy, src += src_step, dst += g.ow) {
        if (s == 1) {
          for (int i = 0; i < width; ++i) dst[i] = src[i];
        } else {
          for (int i = 0; i < width; ++i) {
            dst[i] = src[static_cast<std::ptrdiff_t>(i) * s];
          }
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

void conv_backward_wgrad(const float* grad_out, const float* cols,
                         float* weight_grad, float* bias_grad, int n,
                         int out_c, int ckk, int ohw, int batch_cols, int oc0,
                         int oc1) {
  v4f* g4 = static_cast<v4f*>(
      workspace(sizeof(v4f) * static_cast<std::size_t>(batch_cols)));
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
      conv_wgrad_rows<4>(g4, cols, weight_grad, n, ckk, ohw, batch_cols, ob,
                         mr, kk);
    }
    for (; kk < ckk; ++kk) {
      conv_wgrad_rows<1>(g4, cols, weight_grad, n, ckk, ohw, batch_cols, ob,
                         mr, kk);
    }
  }
}

// Depthwise output planes [p0, p1), plane p = n * g.c + c: lane groups where
// kDwLanes planes of one sample fit in the range, the plane loop elsewhere.
// Both keep each output's sequence, so the result is bit-exact with the
// bounds-checked loop whatever the range.
void dw_forward_planes(const float* in, const float* weight, const float* bias,
                       const ConvGeometry& g, float* out, std::int64_t p0,
                       std::int64_t p1) {
  const int kk = g.kh * g.kw;
  const std::size_t hw = static_cast<std::size_t>(g.h) * g.w;
  const std::size_t ohw = static_cast<std::size_t>(g.oh) * g.ow;
  for (std::int64_t p = p0; p < p1;) {
    const int c = static_cast<int>(p % g.c);
    if (c + kDwLanes <= g.c && p + kDwLanes <= p1) {
      dw_forward_group(in + p * hw, weight + static_cast<std::size_t>(c) * kk,
                       bias + c, g, out + p * ohw);
      p += kDwLanes;
    } else {
      dw_forward_plane(in + p * hw, weight + static_cast<std::size_t>(c) * kk,
                       bias[c], g, out + p * ohw);
      ++p;
    }
  }
}

// Depthwise gradients for channels [c0, c1): lane groups where kDwLanes
// channels fit in the range, single channels elsewhere. Every channel walks
// the samples ascending inside its own call, so weight row c, bias[c] and
// the grad_input planes of c see the bounds-checked loop's accumulation
// sequence. grad_input must be pre-zeroed; weight/bias grads accumulate.
void dw_backward_channels(const float* grad_out, const float* in,
                          const float* weight, const ConvGeometry& g,
                          float* grad_input, float* weight_grad,
                          float* bias_grad, int c0, int c1) {
  for (int c = c0; c < c1;) {
    if (c + kDwLanes <= c1) {
      dw_backward_group(grad_out, in, weight, g, grad_input, weight_grad, bias_grad, c);
      c += kDwLanes;
    } else {
      dw_backward_channel(grad_out, in, weight, g, grad_input, weight_grad,
                          bias_grad, c);
      ++c;
    }
  }
}

const Backend& scalar_backend() {
  static const Backend kScalar{"scalar", gemm_rows, conv_forward_cols<Lanes4>,
                               conv_backward_colgrad<Lanes4>};
  return kScalar;
}

}  // namespace a3cs::tensor::backend
