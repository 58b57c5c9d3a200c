#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/cosearch.h"
#include "core/pipeline.h"
#include "guard/fault.h"
#include "obs/jsonl.h"
#include "rl/eval.h"
#include "util/config.h"

namespace a3cs {
namespace {

core::CoSearchConfig small_config() {
  core::CoSearchConfig cfg;
  cfg.supernet.space.num_cells = 3;  // smallest legal space (1 per stage)
  cfg.a2c.num_envs = 4;
  cfg.a2c.loss = rl::no_distill_coefficients();
  cfg.das.samples_per_iter = 2;
  cfg.tau_decay_every_frames = 500;
  return cfg;
}

TEST(CoSearch, OneLevelSmokeRunsAndDerives) {
  core::CoSearchEngine engine("Catch", small_config(), nullptr);
  const auto result = engine.run(600);
  EXPECT_EQ(result.arch.choices.size(), 3u);
  EXPECT_GE(result.frames, 600);
  EXPECT_FALSE(result.accelerator.chunks.empty());
  EXPECT_GT(result.hw_eval.ii_cycles, 0.0);
}

TEST(CoSearch, BiLevelSmokeRuns) {
  auto cfg = small_config();
  cfg.optimization = core::Optimization::kBiLevel;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  const auto result = engine.run(600);
  EXPECT_EQ(result.arch.choices.size(), 3u);
}

TEST(CoSearch, PureNasModeSkipsAccelerator) {
  auto cfg = small_config();
  cfg.hardware_aware = false;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  const auto result = engine.run(400);
  EXPECT_TRUE(result.accelerator.chunks.empty());
}

TEST(CoSearch, TemperatureDecaysOnSchedule) {
  auto cfg = small_config();
  cfg.tau_decay_every_frames = 100;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  const double tau0 = engine.supernet().temperature();
  engine.run(500);
  EXPECT_LT(engine.supernet().temperature(), tau0);
}

TEST(CoSearch, CallbackFiresAtRequestedCadence) {
  auto cfg = small_config();
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  int calls = 0;
  engine.run(400, [&](std::int64_t) { ++calls; }, 100);
  EXPECT_GE(calls, 3);
}

TEST(CoSearch, HugeLambdaDrivesArchitectureToSkips) {
  // With an overwhelming hardware-cost penalty, the cheapest (skip) operator
  // must dominate the derived architecture — the cost path works end-to-end.
  auto cfg = small_config();
  cfg.lambda = 1e4;
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  const auto result = engine.run(1500);
  int skips = 0;
  for (int c : result.arch.choices) {
    if (c == 8) ++skips;  // op index 8 = skip
  }
  EXPECT_GE(skips, 2) << "arch: " << result.arch.to_string();
}

TEST(CoSearch, AlphaLogitsMoveDuringSearch) {
  auto cfg = small_config();
  core::CoSearchEngine engine("Catch", cfg, nullptr);
  std::vector<float> before;
  for (auto* a : engine.supernet().alpha_params()) {
    for (std::int64_t i = 0; i < a->value.numel(); ++i) {
      before.push_back(a->value[i]);
    }
  }
  engine.run(600);
  double delta = 0.0;
  std::size_t k = 0;
  for (auto* a : engine.supernet().alpha_params()) {
    for (std::int64_t i = 0; i < a->value.numel(); ++i) {
      delta += std::abs(a->value[i] - before[k++]);
    }
  }
  EXPECT_GT(delta, 0.0);
}

TEST(Pipeline, TrainDerivedAgentProducesUsableNet) {
  nas::SearchSpaceConfig space;
  space.num_cells = 3;
  nas::DerivedArch arch;
  arch.choices = {0, 8, 0};
  rl::A2cConfig a2c;
  a2c.num_envs = 4;
  a2c.loss = rl::no_distill_coefficients();
  auto trained =
      core::train_derived_agent("Catch", arch, space, 400, a2c, nullptr, 5);
  ASSERT_NE(trained.net, nullptr);
  EXPECT_FALSE(trained.specs.empty());
  rl::EvalConfig ecfg;
  ecfg.episodes = 2;
  const auto eval = rl::evaluate_agent(*trained.net, "Catch", ecfg);
  EXPECT_EQ(eval.episodes, 2);
}

TEST(Pipeline, SearchAcceleratorRespectsBudget) {
  const auto specs = nn::zoo_model_specs("Vanilla", nn::ObsSpec{3, 12, 12}, 3);
  das::DasConfig cfg;
  cfg.iterations = 200;
  accel::AcceleratorConfig out;
  const auto eval = core::search_accelerator(specs, 2, cfg, &out);
  EXPECT_TRUE(eval.feasible);
  EXPECT_EQ(out.num_chunks(), 2);
  EXPECT_LE(eval.dsp_used, 900);
}

TEST(Pipeline, EndToEndTiny) {
  core::PipelineConfig cfg;
  cfg.cosearch = small_config();
  cfg.search_frames = 400;
  cfg.train_frames = 400;
  cfg.final_das.iterations = 100;
  cfg.eval.episodes = 2;
  const auto result = core::run_a3cs_pipeline("Catch", cfg, nullptr);
  EXPECT_EQ(result.arch.choices.size(), 3u);
  EXPECT_GT(result.hw.fps, 0.0);
  EXPECT_FALSE(result.specs.empty());
  ASSERT_NE(result.trained_net, nullptr);
}

// ------------------------------------------------------------ env knobs --

// Each malformed class throws util::InputError naming the knob and value,
// from the one read every entry point does before any work.
TEST(EnvKnobs, MalformedKnobsThrowNamingKnobAndValue) {
  const std::pair<const char*, const char*> cases[] = {
      {"A3CS_THREADS", "12abc"},       {"A3CS_SCALE", "abc"},
      {"A3CS_SCALE", "0"},             {"A3CS_TRACE_EVERY", "0"},
      {"A3CS_TRACE", "yes"},           {"A3CS_CKPT_KEEP", "99999999999"},
      {"A3CS_GUARD", "heel"},          {"A3CS_BACKEND", "avx"},
      {"A3CS_FAULT_NAN_GRAD", "abc"},  {"A3CS_FAULT_NAN_GRAD", "5:"},
      {"A3CS_FAULT_NAN_GRAD", "5:0"},  {"A3CS_FAULT_INF_LOSS", "5;2"},
  };
  for (const auto& [name, value] : cases) {
    ::setenv(name, value, 1);
    try {
      core::read_env_knobs();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const util::InputError& e) {
      const std::string want = std::string(name) + "=\"" + value + "\"";
      EXPECT_NE(std::string(e.what()).find(want), std::string::npos)
          << e.what();
    }
    ::unsetenv(name);
  }
  EXPECT_NO_THROW(core::read_env_knobs());
}

TEST(EnvKnobs, ReadingKnobsArmsNoFault) {
  guard::FaultInjector::global().reset();
  ::setenv("A3CS_FAULT_NAN_GRAD", "0", 1);
  core::read_env_knobs();
  ::unsetenv("A3CS_FAULT_NAN_GRAD");
  EXPECT_FALSE(guard::FaultInjector::global().should_fire(
      guard::FaultKind::kNanGrad, 5));
}

// cosearch_start records which A3CS_* knobs were set for the run.
TEST(EnvKnobs, CosearchStartTraceCarriesSetKnobs) {
  const std::string path = ::testing::TempDir() + "/core_env_trace.jsonl";
  auto cfg = small_config();
  cfg.obs.trace_enabled = true;
  cfg.obs.trace_path = path;
  ::setenv("A3CS_GUARD_COOLDOWN", "20", 1);  // the default: a no-op knob
  core::CoSearchEngine("Catch", cfg, nullptr).run(100);
  ::unsetenv("A3CS_GUARD_COOLDOWN");
  bool found = false;
  for (const obs::JsonValue& ev : obs::parse_jsonl_file(path)) {
    if (ev.string_or("type", "") != "cosearch_start") continue;
    found = true;
    EXPECT_NE(ev.string_or("env", "").find("A3CS_GUARD_COOLDOWN=20"),
              std::string::npos);
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace a3cs
