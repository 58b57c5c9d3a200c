// Pluggable kernel backends for the tensor/nn hot paths.
//
// A Backend is a table of SHARD-LEVEL kernel functions: each entry computes
// one contiguous shard of a parallel region (a GEMM row panel, a span of
// im2col column-rows, a channel range of col2im, a task range of the conv
// forward/backward fan-outs). The parallel orchestration — shard boundaries,
// grains, work counters, profiling scopes — stays in tensor/ops.cc and
// nn/layers.cc and is IDENTICAL for every backend, so the determinism
// contract of docs/PERFORMANCE.md (fixed contiguous shards, disjoint writes,
// fixed reduction order) holds per backend at every thread count.
//
// Two backends exist:
//  - "scalar": the blocked register-tile kernels (4x8 GEMM, 4x16 conv
//    tiles in vector extensions), compiled for the portable baseline ISA at
//    -O3 with -ffp-contract=off. This is the DEFAULT and is bit-exact with
//    the pre-backend row loops: every output keeps the same operation
//    sequence (no FMA, same reduction order), so the same results.
//  - "avx2":   256-bit AVX2/FMA kernels (packed 6x16 GEMM micro-kernel,
//    vectorized im2col/col2im, 4x16 FMA conv tiles), compiled per-TU with
//    -mavx2 -mfma and registered only when the host CPU supports both.
//    Deterministic across thread counts, but NOT bit-identical to scalar:
//    FMA contracts the multiply-add rounding step and the vectorized
//    reductions reorder float sums. Cross-backend agreement is enforced
//    under a documented ULP tolerance by tests/backend_check_test.cc via
//    tensor/backend/check.h.
//
// Selection: A3CS_BACKEND={scalar,avx2,auto} (default scalar). "auto" picks
// the fastest backend the CPU supports; asking for avx2 on a host without
// AVX2+FMA warns and falls back to scalar. Programmatic override via
// select() / ScopedBackend (benches sweep the backend dimension with it).
#pragma once

#include <string>
#include <vector>

#include "tensor/ops.h"

namespace a3cs::tensor::backend {

// Shard-level kernel table. All pointers are non-null in a registered
// backend. Contracts (shared by every implementation):
//
//  gemm_rows: C[r0:r1, :] = alpha * op(A)[r0:r1, :] @ op(B) + beta * C[...],
//    row-major, a_cols/b_cols are the storage row widths of A and B. Must
//    not read C when beta == 0 (C may be uninitialized). k == 0 degenerates
//    to C = beta * C.
//  im2col_rows: fill column-matrix rows [cr0, cr1) (each row is one
//    (channel, ky, kx) triple) from the NCHW input. Pure data movement —
//    bit-exact across backends.
//  col2im_channels: scatter-add column rows of channels [c0, c1) into the
//    pre-zeroed NCHW gradient image, ascending column-row order per channel.
//  conv_forward_cols: conv output of batch columns [j0, j1) for every
//    out-channel. Column j = s * cols_per_sample + p of the (ckk x
//    batch_cols) im2col matrix is output cell p of sample s:
//    out[s, oc, p] = bias[oc] + W[oc, :] @ cols[:, j]. Kernels tile the
//    range across sample boundaries (register tiles of out-channels x batch
//    columns) and scatter-store into the (n, oc, p) output. Scalar per-output
//    sequence: bias, then `+= w * c` for kk ascending, skipping w == 0.
//  conv_backward_wgrad: accumulate (+=) weight rows and bias entries for
//    out-channels [oc0, oc1) from grad_out and the cached columns. Scalar
//    per-output sequence: for each sample ascending, a double sum of the
//    float products over that sample's columns ascending, then one float
//    add into the gradient.
//  conv_backward_colgrad: write (overwrite, no +=) grad_cols batch columns
//    [j0, j1): grad_cols[:, j] = W^T @ grad_out[s, :, p]. Scalar per-output
//    sequence: +0, then `+= w * g` for oc ascending, skipping w == 0.
//  The zero-weight skips are part of the scalar bit-exact contract, not only
//  of the time: they keep a -0.0 bias (or a -0.0 start) and stop 0 * inf
//  from turning an output into NaN.
//  dw_forward_planes: depthwise conv output planes [p0, p1), plane
//    p = n * g.c + c: out = bias[c] + the K x K taps of weight row c over
//    input plane p (g.kh == g.kw == K). Overwrites the output planes.
//  dw_backward_channels: depthwise gradients of channels [c0, c1), samples
//    ascending: accumulate (+=) weight row c and bias[c], scatter-add into
//    the pre-zeroed grad_input planes of c.
struct Backend {
  const char* name;

  void (*gemm_rows)(const float* a, bool trans_a, const float* b, bool trans_b,
                    float* c, int r0, int r1, int k, int n, float alpha,
                    float beta, int a_cols, int b_cols);

  void (*im2col_rows)(const float* in, const ConvGeometry& g, float* out,
                      int cr0, int cr1);

  void (*col2im_channels)(const float* cols, const ConvGeometry& g, float* out,
                          int c0, int c1);

  void (*conv_forward_cols)(const float* weight, const float* bias,
                            const float* cols, float* out, int out_c, int ckk,
                            int cols_per_sample, int batch_cols, int j0,
                            int j1);

  void (*conv_backward_wgrad)(const float* grad_out, const float* cols,
                              float* weight_grad, float* bias_grad, int n,
                              int out_c, int ckk, int ohw, int batch_cols,
                              int oc0, int oc1);

  void (*conv_backward_colgrad)(const float* grad_out, const float* weight,
                                float* grad_cols, int out_c, int ckk, int ohw,
                                int batch_cols, int j0, int j1);

  void (*dw_forward_planes)(const float* in, const float* weight,
                            const float* bias, const ConvGeometry& g,
                            float* out, std::int64_t p0, std::int64_t p1);

  void (*dw_backward_channels)(const float* grad_out, const float* in,
                               const float* weight, const ConvGeometry& g,
                               float* grad_input, float* weight_grad,
                               float* bias_grad, int c0, int c1);
};

// The portable blocked-scalar reference backend (always available).
const Backend& scalar_backend();

// The AVX2/FMA backend, or nullptr when the TU was compiled without AVX2
// support or the running CPU lacks avx2/fma.
const Backend* avx2_backend();

// True when the running CPU (and the build) can execute the avx2 backend.
bool cpu_supports_avx2();

// The active backend. First call resolves A3CS_BACKEND; later calls are a
// single relaxed atomic load.
const Backend& active();

// Selects a backend by name ("scalar", "avx2", "auto"). Returns false (and
// leaves the active backend unchanged) for unknown or unsupported names.
bool select(const std::string& name);

// Re-reads A3CS_BACKEND and applies it. An unknown name throws
// util::InputError; avx2 on a host without it warns and runs scalar.
void select_from_env();

// Names of the backends usable on this host, scalar first.
std::vector<std::string> available_names();

// RAII backend override for benches and the cross-backend checker.
class ScopedBackend {
 public:
  explicit ScopedBackend(const Backend& b);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const Backend* prev_;
};

}  // namespace a3cs::tensor::backend
