#pragma once
// Conv register tiles over batch columns, written once for both backends
// and instantiated in each backend's TU with its own lane policy.
//
// `cols` is (ckk x batch_cols) with samples contiguous along the column axis
// (column j = s * cps + p), so a tile spans batch columns of several samples
// at once: a cps = 4 conv row is too short to vectorize, a 16-column batch
// block is not. A tile is kConvMR out-channels (forward) or ckk rows
// (colgrad) x kConvNC batch columns; narrower blocks of one vector, then
// single columns, cover the tail. Every output runs one sequence on every
// path (forward: bias, then madd(w, c) for kk ascending; colgrad: +0, then
// madd(w, g) for oc ascending; both skip zero weights), so results do not
// depend on the shard boundaries or the thread count.
//
// The zero-weight skip is part of the result, not only of the time: with a
// -0.0 bias and a skipped w == 0, the output stays -0.0 where
// -0.0 + (+0 * c) would give +0, and a skipped w == 0 against an inf column
// keeps the output finite where 0 * inf would give NaN.
//
// A lane policy P supplies the vector type V of P::kLanes floats (kConvNC
// must be a multiple of kLanes), load/store (unaligned), splat, and madd
// for a vector and for a float; the policy alone fixes the rounding (one
// rounded multiply then one rounded add, or one fused step).
//
// Everything here has internal linkage: the backend TUs build with different
// ISA and -ffp-contract flags, and an external inline function could be
// linked from the AVX2 object into the scalar path.
#include <cstddef>
#include <cstring>

#include "tensor/backend/backend.h"

namespace a3cs::tensor::backend {
namespace {

constexpr int kConvMR = 4;
constexpr int kConvNC = 16;

// Offset of batch column j of out-channel 0 in an (n, out_c, cps) tensor.
inline std::size_t nchw_offset(int j, int out_c, int cps) {
  const int s = j / cps;
  return static_cast<std::size_t>(s) * out_c * cps + (j - s * cps);
}

// Forward tile: out-channels [oc0, oc0 + MR) x batch columns
// [j0, j0 + NV * kLanes), scatter-stored into the (n, oc, p) output.
template <class P, int MR, int NV>
inline void conv_fwd_tile(const float* weight, const float* bias,
                          const float* cols, float* out, int out_c, int ckk,
                          int cps, int batch_cols, int oc0, int j0) {
  constexpr int L = P::kLanes;
  typename P::V acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    // A splat, not 0 + b: keeps a -0.0 bias.
    for (int v = 0; v < NV; ++v) acc[r][v] = P::splat(bias[oc0 + r]);
  }
  const float* w = weight + static_cast<std::size_t>(oc0) * ckk;
  const float* c = cols + j0;
  for (int kk = 0; kk < ckk; ++kk, c += batch_cols) {
    typename P::V cv[NV];
    for (int v = 0; v < NV; ++v) cv[v] = P::load(c + L * v);
    for (int r = 0; r < MR; ++r) {
      const float wv = w[static_cast<std::size_t>(r) * ckk + kk];
      if (wv == 0.0f) continue;
      const typename P::V wb = P::splat(wv);
      for (int v = 0; v < NV; ++v) acc[r][v] = P::madd(wb, cv[v], acc[r][v]);
    }
  }
  alignas(32) float lanes[MR][L * NV];
  std::memcpy(lanes, acc, sizeof lanes);
  for (int l = 0; l < L * NV; ++l) {
    float* o = out + nchw_offset(j0 + l, out_c, cps) +
               static_cast<std::size_t>(oc0) * cps;
    for (int r = 0; r < MR; ++r) {
      o[static_cast<std::size_t>(r) * cps] = lanes[r][l];
    }
  }
}

template <class P, int NV>
void conv_fwd_block(const float* weight, const float* bias, const float* cols,
                    float* out, int out_c, int ckk, int cps, int batch_cols,
                    int j0) {
  int oc = 0;
  for (; oc + kConvMR <= out_c; oc += kConvMR) {
    conv_fwd_tile<P, kConvMR, NV>(weight, bias, cols, out, out_c, ckk, cps,
                                  batch_cols, oc, j0);
  }
  for (; oc < out_c; ++oc) {
    conv_fwd_tile<P, 1, NV>(weight, bias, cols, out, out_c, ckk, cps,
                            batch_cols, oc, j0);
  }
}

// The conv_forward_cols entry (backend.h): full tiles, one-vector blocks,
// then single columns.
template <class P>
void conv_forward_cols(const float* weight, const float* bias,
                       const float* cols, float* out, int out_c, int ckk,
                       int cols_per_sample, int batch_cols, int j0, int j1) {
  constexpr int L = P::kLanes;
  const int cps = cols_per_sample;
  int j = j0;
  for (; j + kConvNC <= j1; j += kConvNC) {
    conv_fwd_block<P, kConvNC / L>(weight, bias, cols, out, out_c, ckk, cps,
                                   batch_cols, j);
  }
  for (; j + L <= j1; j += L) {
    conv_fwd_block<P, 1>(weight, bias, cols, out, out_c, ckk, cps, batch_cols,
                         j);
  }
  for (; j < j1; ++j) {
    float* o = out + nchw_offset(j, out_c, cps);
    for (int oc = 0; oc < out_c; ++oc) {
      const float* wrow = weight + static_cast<std::size_t>(oc) * ckk;
      float acc = bias[oc];
      for (int kk = 0; kk < ckk; ++kk) {
        const float wv = wrow[kk];
        if (wv == 0.0f) continue;
        acc = P::madd(wv, cols[static_cast<std::size_t>(kk) * batch_cols + j],
                      acc);
      }
      o[static_cast<std::size_t>(oc) * cps] = acc;
    }
  }
}

// Column-gradient tile: ckk rows [kk0, kk0 + MR) x the gathered batch
// columns of `gblock` ((out_c x NV * kLanes), row-major).
template <class P, int MR, int NV>
inline void conv_colgrad_tile(const float* gblock, const float* weight,
                              float* grad_cols, int out_c, int ckk,
                              int batch_cols, int kk0, int j0) {
  constexpr int L = P::kLanes;
  typename P::V acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) acc[r][v] = P::splat(0.0f);
  }
  for (int oc = 0; oc < out_c; ++oc) {
    typename P::V gv[NV];
    for (int v = 0; v < NV; ++v) {
      gv[v] = P::load(gblock + static_cast<std::size_t>(oc) * L * NV + L * v);
    }
    const float* w = weight + static_cast<std::size_t>(oc) * ckk + kk0;
    for (int r = 0; r < MR; ++r) {
      if (w[r] == 0.0f) continue;
      const typename P::V wb = P::splat(w[r]);
      for (int v = 0; v < NV; ++v) acc[r][v] = P::madd(wb, gv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* gc = grad_cols + static_cast<std::size_t>(kk0 + r) * batch_cols + j0;
    for (int v = 0; v < NV; ++v) P::store(gc + L * v, acc[r][v]);
  }
}

template <class P, int NV>
void conv_colgrad_block(const float* grad_out, const float* weight,
                        float* grad_cols, float* gblock, int out_c, int ckk,
                        int cps, int batch_cols, int j0) {
  constexpr int nc = P::kLanes * NV;
  for (int c = 0; c < nc; ++c) {
    const float* g = grad_out + nchw_offset(j0 + c, out_c, cps);
    for (int oc = 0; oc < out_c; ++oc) {
      gblock[static_cast<std::size_t>(oc) * nc + c] =
          g[static_cast<std::size_t>(oc) * cps];
    }
  }
  int kk = 0;
  for (; kk + kConvMR <= ckk; kk += kConvMR) {
    conv_colgrad_tile<P, kConvMR, NV>(gblock, weight, grad_cols, out_c, ckk,
                                      batch_cols, kk, j0);
  }
  for (; kk < ckk; ++kk) {
    conv_colgrad_tile<P, 1, NV>(gblock, weight, grad_cols, out_c, ckk,
                                batch_cols, kk, j0);
  }
}

// The conv_backward_colgrad entry (backend.h): grad_out columns gathered
// into a per-thread block, then full tiles, one-vector blocks and single
// columns.
template <class P>
void conv_backward_colgrad(const float* grad_out, const float* weight,
                           float* grad_cols, int out_c, int ckk, int ohw,
                           int batch_cols, int j0, int j1) {
  constexpr int L = P::kLanes;
  float* gblock = static_cast<float*>(
      workspace(sizeof(float) * static_cast<std::size_t>(out_c) * kConvNC));
  int j = j0;
  for (; j + kConvNC <= j1; j += kConvNC) {
    conv_colgrad_block<P, kConvNC / L>(grad_out, weight, grad_cols, gblock,
                                       out_c, ckk, ohw, batch_cols, j);
  }
  for (; j + L <= j1; j += L) {
    conv_colgrad_block<P, 1>(grad_out, weight, grad_cols, gblock, out_c, ckk,
                             ohw, batch_cols, j);
  }
  for (; j < j1; ++j) {
    const float* g = grad_out + nchw_offset(j, out_c, ohw);
    for (int kk = 0; kk < ckk; ++kk) {
      float acc = 0.0f;
      for (int oc = 0; oc < out_c; ++oc) {
        const float wv = weight[static_cast<std::size_t>(oc) * ckk + kk];
        if (wv == 0.0f) continue;
        acc = P::madd(wv, g[static_cast<std::size_t>(oc) * ohw], acc);
      }
      grad_cols[static_cast<std::size_t>(kk) * batch_cols + j] = acc;
    }
  }
}

}  // namespace
}  // namespace a3cs::tensor::backend
