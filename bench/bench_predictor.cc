// Predictor-layer benchmarks on the perf registry (BENCH_PREDICTOR.json):
// analytic HW evaluation, accelerator-space decode, one DAS step, and the
// DNNBuilder greedy config — the paper's pitch that differentiable
// accelerator search is cheap rests on these staying orders of magnitude
// faster than RL-based search.
// This binary produces the committed baseline the perf gate diffs against
// (docs/BENCHMARKING.md).
#include <string>
#include <vector>

#include "accel/dnnbuilder.h"
#include "accel/predictor.h"
#include "accel/space.h"
#include "bench_common.h"
#include "das/das.h"
#include "nn/zoo.h"
#include "obs/perf/bench.h"
#include "serve/service.h"

using namespace a3cs;
using obs::perf::Bench;
using obs::perf::steady_budget;

namespace {

const std::vector<nn::LayerSpec>& r14_specs() {
  static const auto specs =
      nn::zoo_model_specs("ResNet-14", nn::ObsSpec{3, 12, 12}, 4);
  return specs;
}

// One registry iteration = `kBatch` evaluations, so a single sample is long
// enough for the monotonic clock to resolve.
constexpr int kBatch = 256;

}  // namespace

BENCH("predictor_eval") {
  const std::vector<int> chunk_counts =
      b.smoke() ? std::vector<int>{1} : std::vector<int>{1, 2, 4, 8};
  const int batch = b.smoke() ? 4 : kBatch;
  for (int chunks : chunk_counts) {
    accel::Predictor pred;
    accel::AcceleratorSpace space(chunks, nn::num_groups(r14_specs()));
    util::Rng rng(1);
    const auto cfg = space.decode(space.random_choices(rng));
    b.config("chunks" + std::to_string(chunks))
        .items(batch, "evals/s")
        .budget(steady_budget(0.1))
        .run([&] {
          for (int i = 0; i < batch; ++i) {
            volatile double sink = pred.evaluate(r14_specs(), cfg).fps;
            (void)sink;
          }
        });
  }
}

// The same evaluations on a network decomposed once by prepare_network: the
// path every DAS and serving sweep runs, without the per-call decomposition
// the spec overload above pays.
BENCH("predictor_eval_prepared") {
  const std::vector<int> chunk_counts =
      b.smoke() ? std::vector<int>{1} : std::vector<int>{1, 2, 4, 8};
  const int batch = b.smoke() ? 4 : kBatch;
  const accel::PreparedNetwork net = accel::prepare_network(r14_specs());
  for (int chunks : chunk_counts) {
    accel::Predictor pred;
    accel::AcceleratorSpace space(chunks, nn::num_groups(r14_specs()));
    util::Rng rng(1);
    const auto cfg = space.decode(space.random_choices(rng));
    b.config("chunks" + std::to_string(chunks))
        .items(batch, "evals/s")
        .budget(steady_budget(0.1))
        .run([&] {
          for (int i = 0; i < batch; ++i) {
            volatile double sink = pred.evaluate(net, cfg).fps;
            (void)sink;
          }
        });
  }
}

BENCH("space_decode") {
  accel::AcceleratorSpace space(4, nn::num_groups(r14_specs()));
  util::Rng rng(2);
  const auto choices = space.random_choices(rng);
  const int batch = b.smoke() ? 4 : kBatch;
  b.config("chunks4")
      .items(batch, "decodes/s")
      .budget(steady_budget(0.025))
      .run([&] {
    for (int i = 0; i < batch; ++i) {
      volatile int sink = space.decode(choices).num_chunks();
      (void)sink;
    }
  });
}

BENCH("das_step") {
  const std::vector<int> sample_counts =
      b.smoke() ? std::vector<int>{1} : std::vector<int>{1, 4};
  const int batch = b.smoke() ? 2 : 32;
  for (int samples : sample_counts) {
    accel::Predictor pred;
    accel::AcceleratorSpace space(4, nn::num_groups(r14_specs()));
    das::DasConfig cfg;
    cfg.samples_per_iter = samples;
    das::DasEngine engine(space, pred, cfg);
    b.config("samples" + std::to_string(samples))
        .items(batch, "steps/s")
        .budget(steady_budget(0.5 * samples))
        .run([&] {
          for (int i = 0; i < batch; ++i) engine.step(r14_specs(), 1);
        });
  }
}

// Serving-layer throughput (docs/SERVING.md): one PredictorService fed
// batches of candidate configs for the deepest zoo net. "cold" clears the
// memo-cache before every batch (every config evaluated); "warm" pre-fills
// it (every config a digest, a hash probe under the cache lock and a
// refcount bump). Warm batched at 8 threads must beat cold serial: the hit
// path must win on the predictor's own turf, a ~μs analytic model.
BENCH("serve_batch") {
  const auto specs = nn::zoo_model_specs("ResNet-74", nn::ObsSpec{3, 12, 12},
                                         4);
  accel::AcceleratorSpace space(4, nn::num_groups(specs));
  const int n = b.smoke() ? 8 : 512;
  util::Rng rng(5);
  std::vector<accel::AcceleratorConfig> configs;
  configs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    configs.push_back(space.decode(space.random_choices(rng)));
  }
  accel::Predictor pred;
  const std::vector<int> thread_counts =
      b.smoke() ? std::vector<int>{1} : std::vector<int>{1, 8, 16};
  for (int threads : thread_counts) {
    serve::PredictorService service(pred);
    const serve::PreparedNet net = service.prepare(specs);
    b.config("cold")
        .threads(threads)
        .items(n, "configs/s")
        .budget(steady_budget(2.0))
        .run([&] {
      service.cache().clear();
      volatile bool sink =
          service.evaluate_batch(net, configs).back().eval().feasible;
      (void)sink;
    });
    service.evaluate_batch(net, configs);  // pre-fill for the warm rows
    b.config("warm")
        .threads(threads)
        .items(n, "configs/s")
        .budget(steady_budget(0.3))
        .run([&] {
      volatile bool sink =
          service.evaluate_batch(net, configs).back().eval().feasible;
      (void)sink;
    });
  }
}

BENCH("dnnbuilder_config") {
  accel::Predictor pred;
  const int batch = b.smoke() ? 2 : 32;
  b.config("r14")
      .items(batch, "configs/s")
      .budget(steady_budget(0.12))
      .run([&] {
    for (int i = 0; i < batch; ++i) {
      volatile int sink =
          accel::dnnbuilder_config(r14_specs(), pred.budget()).num_chunks();
      (void)sink;
    }
  });
}

int main(int argc, char** argv) {
  bench::banner("predictor",
                "analytic predictor / space decode / DAS step throughput");
  return obs::perf::run_bench_main("predictor", argc, argv);
}
