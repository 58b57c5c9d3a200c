// Accelerator design walk-through: take a fixed DRL backbone (ResNet-14 by
// default), run the DAS engine under the ZC706-like 900-DSP budget, and
// compare the result against the DNNBuilder-style baseline and best-of-N
// random sampling — all on the same analytical predictor.
//
//   ./examples/design_accelerator [model] [das_iterations]
#include <iostream>
#include <string>

#include "accel/dnnbuilder.h"
#include "arcade/env.h"
#include "core/pipeline.h"
#include "das/das.h"
#include "nn/zoo.h"
#include "util/config.h"

using namespace a3cs;

int main(int argc, char** argv) {
  const std::string model = argc > 1 ? argv[1] : "ResNet-14";
  const int iterations = util::count_arg(argc, argv, 2, "iterations", 400);

  const nn::ObsSpec obs = arcade::standard_obs_spec();
  auto specs = nn::zoo_model_specs(model, obs, 4);
  std::cout << model << ": " << specs.size() << " layers, "
            << nn::network_macs(specs) << " MACs, "
            << nn::network_params(specs) << " params\n";

  accel::AcceleratorSpace space(4, nn::num_groups(specs));
  std::cout << "accelerator space: 10^" << space.log10_size()
            << " configurations (" << space.num_knobs() << " knobs)\n";

  accel::Predictor predictor;

  das::DasConfig cfg;
  cfg.iterations = iterations;
  das::DasEngine engine(space, predictor, cfg);
  const das::DasResult das_result = engine.search(specs);
  std::cout << "\nDAS result: FPS = " << das_result.eval.fps
            << ", DSP = " << das_result.eval.dsp_used << "/900"
            << ", BRAM = " << das_result.eval.bram_used << "/1090"
            << (das_result.eval.feasible ? "" : " (INFEASIBLE)") << "\n";
  std::cout << "config: " << das_result.config.to_string() << "\n";

  const auto dnnb = accel::dnnbuilder_eval(specs, predictor);
  std::cout << "\nDNNBuilder baseline: FPS = " << dnnb.fps
            << ", DSP = " << dnnb.dsp_used << "\n";

  const auto rnd = das::random_search(space, predictor, specs, iterations, 5);
  std::cout << "random search (same budget): FPS = " << rnd.eval.fps << "\n";

  std::cout << "\nDAS speedup over DNNBuilder: "
            << (dnnb.fps > 0 ? das_result.eval.fps / dnnb.fps : 0.0) << "x\n";
  return 0;
}
