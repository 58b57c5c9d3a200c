// Inspection CLI: poke at the library's building blocks from the shell.
//
//   inspect games                     list registered games
//   inspect model <zoo-name>          layer table with MACs/params
//   inspect arch <op-op-...>          specs of a derived architecture
//   inspect accel <zoo-name> [chunks] run DAS and print the design report
//   inspect play <game> [steps]       random-play ASCII rollout
#include <iostream>
#include <string>

#include "arcade/games.h"
#include "arcade/render.h"
#include "core/pipeline.h"
#include "das/das.h"
#include "nas/arch.h"
#include "nn/zoo.h"
#include "util/config.h"
#include "util/table.h"

using namespace a3cs;

namespace {

int usage() {
  std::cerr << "usage: inspect games | model <name> | arch <string> | "
               "accel <name> [chunks] | play <game> [steps]\n";
  return 1;
}

void print_specs(const std::vector<nn::LayerSpec>& specs) {
  util::TextTable t({"layer", "kind", "in", "out", "k", "s", "geometry",
                     "MACs", "params", "group"});
  for (const auto& s : specs) {
    const char* kind = s.kind == nn::LayerSpec::Kind::kConv
                           ? "conv"
                           : (s.kind == nn::LayerSpec::Kind::kDepthwiseConv
                                  ? "dwconv"
                                  : "linear");
    t.add_row({s.name, kind, std::to_string(s.in_c), std::to_string(s.out_c),
               std::to_string(s.kernel), std::to_string(s.stride),
               std::to_string(s.in_h) + "x" + std::to_string(s.in_w) + "->" +
                   std::to_string(s.out_h) + "x" + std::to_string(s.out_w),
               std::to_string(s.macs()), std::to_string(s.params()),
               std::to_string(s.group)});
  }
  t.print(std::cout);
  std::cout << "total: " << nn::network_macs(specs) << " MACs, "
            << nn::network_params(specs) << " params\n";
}

int cmd_games() {
  util::TextTable t({"title", "actions"});
  for (const auto& title : arcade::all_game_titles()) {
    auto env = arcade::make_game(title, 1);
    t.add_row({title, std::to_string(env->num_actions())});
  }
  t.print(std::cout);
  return 0;
}

int cmd_model(const std::string& name) {
  print_specs(nn::zoo_model_specs(name, arcade::standard_obs_spec(), 6));
  return 0;
}

int cmd_arch(const std::string& arch_str) {
  const auto arch = nas::DerivedArch::from_string(arch_str);
  nas::SearchSpaceConfig cfg;
  cfg.num_cells = static_cast<int>(arch.choices.size());
  print_specs(nas::derived_specs(arch, arcade::standard_obs_spec(), cfg));
  return 0;
}

int cmd_accel(const std::string& model, int chunks) {
  const auto specs = nn::zoo_model_specs(model, arcade::standard_obs_spec(), 6);
  accel::AcceleratorSpace space(chunks, nn::num_groups(specs));
  accel::Predictor predictor;
  das::DasEngine engine(space, predictor, das::DasConfig{});
  const auto result = engine.search(specs);
  std::cout << "searched 10^" << space.log10_size() << " configurations\n"
            << result.config.to_string() << "\n"
            << result.eval.report();
  return 0;
}

int cmd_play(const std::string& game, int steps) {
  auto env = arcade::make_game(game, 42);
  util::Rng rng(1);
  auto obs = env->reset();
  double score = 0.0;
  for (int t = 0; t < steps; ++t) {
    std::cout << arcade::render_ascii(obs) << "score=" << score << "\n";
    const auto r = env->step(rng.uniform_int(env->num_actions()));
    score += r.reward;
    obs = r.obs;
    if (r.done) break;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "games") return cmd_games();
    if (cmd == "model" && argc > 2) return cmd_model(argv[2]);
    if (cmd == "arch" && argc > 2) return cmd_arch(argv[2]);
    if (cmd == "accel" && argc > 2) {
      return cmd_accel(argv[2], util::count_arg(argc, argv, 3, "chunks", 4));
    }
    if (cmd == "play" && argc > 2) {
      return cmd_play(argv[2], util::count_arg(argc, argv, 3, "steps", 12));
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  return usage();
}
