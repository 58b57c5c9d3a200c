// Execution-layer microbenchmarks on the perf registry (BENCH_KERNELS.json):
// GEMM (paper conv shapes + 256^3) against the pre-threading naive i-k-j
// seed kernel, Conv2d and DepthwiseConv2d forward and forward+backward,
// im2col, and VecEnv::step across thread counts. GEMM, conv and depthwise
// sweep the kernel-backend dimension too: each
// available backend (scalar, and avx2 where the host supports it) gets its
// own config row, e.g. "256x256x256_scalar" vs "256x256x256_avx2".
//
// Run `bench_kernels --json BENCH_KERNELS.json` to refresh the committed
// baseline and `bench_report --check` to diff against it
// (docs/BENCHMARKING.md). `bench_kernels --backends` prints the backends
// usable on this host, one per line (bench/run_sanitized.sh probes it before
// running the A3CS_BACKEND=avx2 test stage). A3CS_BENCH_SMOKE=1 shrinks
// every case to a tiny shape with one repeat so ctest's bench_smoke can
// exercise the code path in milliseconds.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "arcade/vec_env.h"
#include "bench_common.h"
#include "nn/layers.h"
#include "obs/perf/bench.h"
#include "tensor/backend/backend.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

using namespace a3cs;
using obs::perf::Bench;
using tensor::Shape;
using tensor::Tensor;

namespace {

// The seed's serial GEMM (i-k-j saxpy over C rows), kept verbatim as the
// baseline the blocked kernel is measured against.
void gemm_naive(const float* a, const float* b, float* c, int m, int k,
                int n) {
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * n;
    std::fill(crow, crow + n, 0.0f);
    for (int kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<std::size_t>(i) * k + kk];
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

Tensor random_tensor(const Shape& shape, std::uint64_t seed_value) {
  util::Rng rng(seed_value);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  return t;
}

struct GemmShape {
  int m, k, n;
};

// 256^3 is the acceptance shape; the other two are the paper's conv layers
// lowered to GEMM (OC x C*KH*KW times C*KH*KW x N*OH*OW).
std::vector<GemmShape> gemm_shapes(bool smoke) {
  if (smoke) return {{16, 16, 16}};
  return {{256, 256, 256}, {64, 576, 2304}, {32, 288, 3136}};
}

std::vector<int> thread_counts(bool smoke) {
  if (smoke) return {1};
  return {1, 2, 4, 8};
}

std::string shape_label(const GemmShape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
         std::to_string(s.n);
}

std::int64_t gemm_flops(const GemmShape& s) {
  return 2ll * s.m * s.k * s.n;
}

std::int64_t gemm_bytes(const GemmShape& s) {
  return 4ll * (static_cast<std::int64_t>(s.m) * s.k +
                static_cast<std::int64_t>(s.k) * s.n +
                static_cast<std::int64_t>(s.m) * s.n);
}

const tensor::backend::Backend* backend_by_name(const std::string& name) {
  if (name == "scalar") return &tensor::backend::scalar_backend();
  if (name == "avx2") return tensor::backend::avx2_backend();
  return nullptr;
}

}  // namespace

BENCH("gemm_naive") {
  for (const GemmShape& s : gemm_shapes(b.smoke())) {
    const Tensor a = random_tensor(Shape::mat(s.m, s.k), 1);
    const Tensor bm = random_tensor(Shape::mat(s.k, s.n), 2);
    Tensor c(Shape::mat(s.m, s.n));
    b.config(shape_label(s))
        .threads(1)
        .work(gemm_flops(s), gemm_bytes(s))
        .run([&] { gemm_naive(a.data(), bm.data(), c.data(), s.m, s.k, s.n); });
  }
}

BENCH("gemm") {
  for (const std::string& backend : tensor::backend::available_names()) {
    tensor::backend::ScopedBackend scoped(*backend_by_name(backend));
    for (const GemmShape& s : gemm_shapes(b.smoke())) {
      const Tensor a = random_tensor(Shape::mat(s.m, s.k), 1);
      const Tensor bm = random_tensor(Shape::mat(s.k, s.n), 2);
      Tensor c(Shape::mat(s.m, s.n));
      for (int threads : thread_counts(b.smoke())) {
        b.config(shape_label(s) + "_" + backend)
            .threads(threads)
            .work(gemm_flops(s), gemm_bytes(s))
            .run([&] {
              tensor::gemm_raw(a.data(), false, bm.data(), false, c.data(),
                               s.m, s.k, s.n);
            });
      }
    }
  }
}

namespace {

// Conv2d: the three dominant conv geometries of a 6-cell co-search at the
// 5-step update batch (8 envs x 5 steps = 40), k3 stride 1 pad 1 (the
// teacher's and the plain-conv candidates' shape): 32 channels on the 2x2
// map (ckk 288, 4 output columns per sample), 8 on 6x6 (ckk 72, 36) and 16
// on 3x3 (ckk 144, 9). im2col and the backend conv kernels run inside
// Conv2d::forward; with `backward` each sample times a forward + backward
// pair (backward consumes the forward's cache, 3 passes of flops).
// Swept over backends like "gemm".
void conv_cases(Bench& b, bool backward) {
  struct Case {
    int n, ch, hw;
  };
  const std::vector<Case> cases =
      b.smoke() ? std::vector<Case>{{2, 4, 3}}
                : std::vector<Case>{{40, 32, 2}, {40, 8, 6}, {40, 16, 3}};
  for (const Case& cs : cases) {
    util::Rng rng(11);
    nn::Conv2d conv("bench_conv", cs.ch, cs.ch, 3, 1, 1, rng);
    const Tensor x = random_tensor(Shape::nchw(cs.n, cs.ch, cs.hw, cs.hw), 5);
    const Tensor g = random_tensor(x.shape(), 6);
    // im2col/col2im are data movement; each matmul pass is
    // 2 * OC * C*KH*KW per output element, OH == H and OW == W.
    const std::int64_t flops = (backward ? 3 : 1) * 2ll * cs.ch *
                               (cs.ch * 9ll) * (cs.n * cs.hw * cs.hw);
    const std::string shape = std::to_string(cs.n) + "x" +
                              std::to_string(cs.ch) + "x" +
                              std::to_string(cs.hw) + "x" +
                              std::to_string(cs.hw) + "_k3";
    for (const std::string& backend : tensor::backend::available_names()) {
      tensor::backend::ScopedBackend scoped(*backend_by_name(backend));
      for (int threads : thread_counts(b.smoke())) {
        b.config(shape + "_" + backend)
            .threads(threads)
            .work(flops, 0)
            .run([&] {
              conv.forward(x);
              if (backward) conv.backward(g);
            });
      }
    }
  }
}

}  // namespace

BENCH("conv2d_fwd") { conv_cases(b, false); }

BENCH("conv2d_bwd") { conv_cases(b, true); }

namespace {

// Depthwise: the batch forward (8 envs x 5 steps) of a stage-0
// inverted-residual cell with expansion 5 on the 6x6 feature map, k3 and
// k5, swept over backends like "conv2d_fwd". With `backward` each sample
// times a forward + backward pair (backward consumes the forward's cache,
// 3 passes of flops); "dw_fwd" isolates the forward.
void dw_cases(Bench& b, bool backward) {
  const int n = b.smoke() ? 2 : 40;
  const int ch = b.smoke() ? 4 : 40;
  const Tensor x = random_tensor(Shape::nchw(n, ch, 6, 6), 6);
  const Tensor g = random_tensor(x.shape(), 7);
  for (const int k : {3, 5}) {
    util::Rng rng(12);
    nn::DepthwiseConv2d dw("bench_dw", ch, k, 1, k / 2, rng);
    const std::int64_t flops = (backward ? 3 : 1) * 2ll * k * k * x.numel();
    const std::string shape = std::to_string(n) + "x" + std::to_string(ch) +
                              "x6x6_k" + std::to_string(k);
    for (const std::string& backend : tensor::backend::available_names()) {
      tensor::backend::ScopedBackend scoped(*backend_by_name(backend));
      for (int threads : thread_counts(b.smoke())) {
        b.config(shape + "_" + backend)
            .threads(threads)
            .work(flops, 0)
            .run([&] {
              dw.forward(x);
              if (backward) dw.backward(g);
            });
      }
    }
  }
}

}  // namespace

BENCH("dw_fwd") { dw_cases(b, false); }

BENCH("dw_bwd") { dw_cases(b, true); }

BENCH("im2col") {
  const int n = b.smoke() ? 2 : 16;
  const int ch = b.smoke() ? 4 : 32;
  const int hw = b.smoke() ? 8 : 28;
  const Tensor x = random_tensor(Shape::nchw(n, ch, hw, hw), 3);
  const auto g = tensor::ConvGeometry::make(x.shape(), 3, 3, 1, 1);
  Tensor cols(Shape::mat(ch * 3 * 3, g.n * g.oh * g.ow));
  const std::string cfg = std::to_string(n) + "x" + std::to_string(ch) + "x" +
                          std::to_string(hw) + "x" + std::to_string(hw) +
                          "_k3";
  for (int threads : thread_counts(b.smoke())) {
    b.config(cfg)
        .threads(threads)
        .work(0, 8 * cols.numel())
        .items(static_cast<double>(cols.numel()), "elem/s")
        .run([&] { tensor::im2col(x, g, cols); });
  }
}

BENCH("vecenv_step") {
  const int num_envs = b.smoke() ? 4 : 32;
  const int horizon = b.smoke() ? 4 : 64;
  const std::string cfg =
      "Catch_" + std::to_string(num_envs) + "env";
  for (int threads : thread_counts(b.smoke())) {
    arcade::VecEnv envs("Catch", num_envs, 4242);
    envs.reset();
    util::Rng rng(7);
    b.config(cfg)
        .threads(threads)
        .items(static_cast<double>(num_envs) * horizon, "steps/s")
        .run([&] {
          for (int t = 0; t < horizon; ++t) {
            std::vector<int> actions(num_envs);
            for (auto& a : actions) a = rng.uniform_int(envs.num_actions());
            envs.step(actions);
          }
        });
  }
}

int main(int argc, char** argv) {
  // Machine-readable host-capability probe (used by bench/run_sanitized.sh
  // to decide whether the A3CS_BACKEND=avx2 stage can run). Handled here —
  // not in run_bench_main — because the backend registry lives in the tensor
  // layer, below the obs bench driver.
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--backends") {
      for (const std::string& name : tensor::backend::available_names()) {
        std::cout << name << "\n";
      }
      return 0;
    }
  }
  bench::banner("kernels",
                "GEMM / conv / depthwise / im2col / VecEnv::step timing "
                "across thread counts and kernel backends");
  return obs::perf::run_bench_main("kernels", argc, argv);
}
