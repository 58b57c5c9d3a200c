// Bit-exactness of the parallel execution layer: every kernel and subsystem
// routed through util::ThreadPool must produce byte-identical results at any
// thread count (the determinism contract of src/util/thread_pool.h). Each
// test computes a reference at 1 thread and compares exactly — not within a
// tolerance — against runs at several other thread counts.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "accel/config_io.h"
#include "arcade/games.h"
#include "arcade/vec_env.h"
#include "das/das.h"
#include "nas/mixed_op.h"
#include "nn/layers.h"
#include "nn/zoo.h"
#include "rl/a2c.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

using nn::Shape;
using nn::Tensor;

constexpr int kThreadCounts[] = {2, 3, 8};

// Runs `fn` with the global pool resized to `threads`, restoring serial mode
// afterwards so tests stay independent.
template <typename Fn>
auto at_threads(int threads, Fn&& fn) {
  util::ThreadPool::set_global_threads(threads);
  auto out = fn();
  util::ThreadPool::set_global_threads(1);
  return out;
}

void expect_bits_equal(const std::vector<float>& ref,
                       const std::vector<float>& got, int threads,
                       const char* what) {
  ASSERT_EQ(ref.size(), got.size()) << what << " at " << threads << " threads";
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(ref[i], got[i]) << what << " diverges at index " << i << " with "
                              << threads << " threads";
  }
}

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1, 1));
  }
  return t;
}

// -------------------------------------------------------------- kernels ---

TEST(Determinism, GemmBitExactAcrossThreadCounts) {
  struct Case {
    int m, k, n;
    bool ta, tb;
    float alpha, beta;
  };
  const Case cases[] = {
      {256, 256, 256, false, false, 1.0f, 0.0f},
      {64, 576, 96, false, true, 1.0f, 0.0f},
      {33, 17, 29, true, false, 0.5f, 1.5f},
      {7, 130, 5, true, true, -1.0f, 0.25f},
  };
  for (const auto& p : cases) {
    Tensor a = random_tensor(p.ta ? Shape::mat(p.k, p.m) : Shape::mat(p.m, p.k), 1);
    Tensor b = random_tensor(p.tb ? Shape::mat(p.n, p.k) : Shape::mat(p.k, p.n), 2);
    const Tensor c0 = random_tensor(Shape::mat(p.m, p.n), 3);
    auto run = [&]() {
      Tensor c = c0;
      tensor::gemm(a, p.ta, b, p.tb, c, p.alpha, p.beta);
      return c.vec();
    };
    const auto ref = at_threads(1, run);
    for (int threads : kThreadCounts) {
      expect_bits_equal(ref, at_threads(threads, run), threads, "gemm");
    }
  }
}

TEST(Determinism, Im2ColAndCol2ImBitExact) {
  const Tensor x = random_tensor(Shape::nchw(3, 5, 13, 11), 4);
  const auto g = tensor::ConvGeometry::make(x.shape(), 3, 3, 2, 1);
  auto run = [&]() {
    Tensor cols(Shape::mat(5 * 3 * 3, g.n * g.oh * g.ow));
    tensor::im2col(x, g, cols);
    Tensor back(x.shape());
    tensor::col2im(cols, g, back);
    auto out = cols.vec();
    out.insert(out.end(), back.vec().begin(), back.vec().end());
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads, "im2col/col2im");
  }
}

TEST(Determinism, Conv2dForwardBackwardBitExact) {
  const Tensor x = random_tensor(Shape::nchw(4, 3, 12, 12), 5);
  auto run = [&]() {
    util::Rng rng(21);
    nn::Conv2d conv("conv", 3, 8, 3, 1, 1, rng);
    Tensor y = conv.forward(x);
    const Tensor grad_out = random_tensor(y.shape(), 6);
    Tensor grad_in = conv.backward(grad_out);
    auto out = y.vec();
    out.insert(out.end(), grad_in.vec().begin(), grad_in.vec().end());
    out.insert(out.end(), conv.weight().grad.vec().begin(),
               conv.weight().grad.vec().end());
    out.insert(out.end(), conv.bias().grad.vec().begin(),
               conv.bias().grad.vec().end());
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads, "conv2d");
  }
}

// ------------------------------------------------------------ NAS / DAS ---

TEST(Determinism, MixedOpTopKBackwardBitExact) {
  const Tensor x = random_tensor(Shape::nchw(2, 4, 8, 8), 7);
  auto run = [&]() {
    util::Rng rng(31);
    util::Rng sampler(32);
    const double tau = 2.0;
    nas::MixedOp op("cell", 4, 8, 1, rng, &sampler, &tau,
                    /*backward_paths=*/4);
    Tensor y = op.forward(x);
    const Tensor grad_out = random_tensor(y.shape(), 8);
    Tensor grad_in = op.backward(grad_out);
    auto out = op.alpha().param().grad.vec();
    out.insert(out.end(), grad_in.vec().begin(), grad_in.vec().end());
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads,
                      "mixed-op backward");
  }
}

// ------------------------------------------------------------------ env ---

TEST(Determinism, VecEnvStepSequenceBitExact) {
  auto run = [&]() {
    arcade::VecEnv envs("Catch", 6, 77);
    util::Rng action_rng(9);
    std::vector<float> out(envs.reset().vec());
    for (int t = 0; t < 40; ++t) {
      std::vector<int> actions;
      for (int i = 0; i < envs.num_envs(); ++i) {
        actions.push_back(action_rng.uniform_int(envs.num_actions()));
      }
      const auto& step = envs.step(actions);
      out.insert(out.end(), step.obs.vec().begin(), step.obs.vec().end());
      for (double r : step.rewards) out.push_back(static_cast<float>(r));
      for (std::uint8_t d : step.dones) out.push_back(static_cast<float>(d));
    }
    for (double s : envs.drain_episode_scores()) {
      out.push_back(static_cast<float>(s));
    }
    out.push_back(static_cast<float>(envs.episodes_completed()));
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads, "vec-env");
  }
}

// ------------------------------------------------------------------- rl ---

TEST(Determinism, ShortA2cRunBitExact) {
  auto run = [&]() {
    auto probe = arcade::make_game("Catch", 1);
    util::Rng rng(13);
    auto agent = nn::build_zoo_agent("Vanilla", probe->obs_spec(),
                                     probe->num_actions(), rng);
    arcade::VecEnv envs("Catch", 4, 55);
    rl::A2cConfig cfg;
    cfg.loss = rl::no_distill_coefficients();
    cfg.num_envs = 4;
    rl::A2cTrainer trainer(*agent.net, envs, cfg);
    trainer.train(1200);
    std::vector<float> out;
    for (const auto* p : agent.net->parameters()) {
      out.insert(out.end(), p->value.vec().begin(), p->value.vec().end());
    }
    return out;
  };
  const auto ref = at_threads(1, run);
  for (int threads : kThreadCounts) {
    expect_bits_equal(ref, at_threads(threads, run), threads, "a2c run");
  }
}

// ------------------------------------------------------------------ das ---

// Every HwEval field in one vector, so two evaluations compare bit-exactly.
std::vector<double> eval_fields(const accel::HwEval& e) {
  std::vector<double> out = {static_cast<double>(e.feasible),
                             e.ii_cycles,
                             e.latency_cycles,
                             e.fps,
                             e.energy_nj,
                             static_cast<double>(e.dsp_used),
                             e.bram_used,
                             e.resource_overflow};
  for (const accel::LayerCost& lc : e.layers) {
    out.insert(out.end(), {lc.compute_cycles, lc.memory_cycles, lc.cycles,
                           lc.sram_bytes, lc.dram_bytes, lc.energy_nj,
                           static_cast<double>(lc.chunk)});
  }
  out.insert(out.end(), e.chunk_cycles.begin(), e.chunk_cycles.end());
  return out;
}

struct DasSweeps {
  std::string step_state;               // save_state after step()
  das::DasResult incumbent;             // the stepped engine's incumbent
  std::vector<das::DasResult> results;  // search, random, exhaustive
};

// DAS draws its samples serially, fans the predictor evaluations over the
// pool and replays the incumbent/baseline/gradient bookkeeping in draw
// order, so the whole search state must be byte-identical at any thread
// count, and every reported evaluation must equal a serial predictor call.
TEST(Determinism, DasSweepsBitExact) {
  const auto specs =
      nn::zoo_model_specs("ResNet-14", nn::ObsSpec{3, 12, 12}, 4);
  const accel::AcceleratorSpace space(3, nn::num_groups(specs));
  // One chunk, one group: the smallest space (55296 configs) for the
  // exhaustive baseline.
  std::vector<nn::LayerSpec> tiny_specs = {
      nn::LayerSpec::conv("c", 8, 16, 3, 1, 12, 12)};
  nn::assign_sequential_groups(tiny_specs);
  const accel::AcceleratorSpace tiny_space(1, 1);
  const accel::Predictor predictor;

  auto run = [&]() {
    DasSweeps out;
    das::DasConfig cfg;
    cfg.samples_per_iter = 4;
    das::DasEngine stepper(space, predictor, cfg);
    stepper.step(specs, 20);
    std::ostringstream state;
    stepper.save_state(state);
    out.step_state = state.str();
    out.incumbent.config = stepper.incumbent();
    out.incumbent.eval = stepper.incumbent_eval();
    out.incumbent.best_cost = stepper.incumbent_cost();

    cfg.iterations = 60;
    das::DasEngine searcher(space, predictor, cfg);
    out.results.push_back(searcher.search(specs));
    // 600 samples: two full 256-config blocks, then a ragged one of 88.
    out.results.push_back(
        das::random_search(space, predictor, specs, 600, 17));
    out.results.push_back(
        das::exhaustive_search(tiny_space, predictor, tiny_specs));
    return out;
  };

  const char* const kNames[] = {"search", "random_search",
                                "exhaustive_search"};
  const std::vector<nn::LayerSpec>* const kSpecs[] = {&specs, &specs,
                                                      &tiny_specs};
  auto expect_serial_evals = [&](const DasSweeps& s, int threads) {
    auto expect_serial = [&](const das::DasResult& r,
                             const std::vector<nn::LayerSpec>& net,
                             const char* what) {
      const accel::HwEval serial = predictor.evaluate(net, r.config);
      EXPECT_EQ(eval_fields(r.eval), eval_fields(serial))
          << what << " at " << threads << " threads";
      EXPECT_EQ(r.best_cost, predictor.scalar_cost(serial))
          << what << " at " << threads << " threads";
    };
    expect_serial(s.incumbent, specs, "step incumbent");
    ASSERT_EQ(s.results.size(), 3u);
    for (std::size_t i = 0; i < s.results.size(); ++i) {
      expect_serial(s.results[i], *kSpecs[i], kNames[i]);
    }
  };

  const DasSweeps ref = at_threads(1, run);
  ASSERT_EQ(ref.results[1].cost_curve.size(), 600u);
  expect_serial_evals(ref, 1);
  for (int threads : {2, 3, 4}) {
    const DasSweeps got = at_threads(threads, run);
    EXPECT_EQ(got.step_state, ref.step_state)
        << "DasEngine state diverges at " << threads << " threads";
    expect_serial_evals(got, threads);
    for (std::size_t i = 0; i < ref.results.size(); ++i) {
      const das::DasResult& a = ref.results[i];
      const das::DasResult& b = got.results[i];
      EXPECT_EQ(accel::encode_config(b.config), accel::encode_config(a.config))
          << kNames[i] << " at " << threads << " threads";
      EXPECT_EQ(eval_fields(b.eval), eval_fields(a.eval))
          << kNames[i] << " at " << threads << " threads";
      EXPECT_EQ(b.best_cost, a.best_cost)
          << kNames[i] << " at " << threads << " threads";
      EXPECT_EQ(b.cost_curve, a.cost_curve)
          << kNames[i] << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace a3cs
