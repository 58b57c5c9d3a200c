// DAS validation bench (supports Sec. IV-A's DAS engine claims): compares
// the differentiable accelerator search against best-of-N random sampling
// (same evaluation budget), the DNNBuilder heuristic, the FA3C fixed engine
// and — on a reduced single-chunk space — exhaustive enumeration.
#include "accel/dnnbuilder.h"
#include "accel/fa3c.h"
#include "bench_common.h"
#include "das/das.h"
#include "nn/zoo.h"

using namespace a3cs;

int main() try {
  bench::banner("DAS quality", "DAS vs random / DNNBuilder / FA3C / exhaustive");
  const int das_iters = static_cast<int>(
      util::env_int("A3CS_DAS_ITERS", 1500, 1, util::kIntMax));
  accel::Predictor predictor;
  util::TextTable table({"Network", "DAS FPS", "Random FPS", "DNNBuilder FPS",
                         "FA3C FPS", "DAS DSP"});
  util::CsvWriter csv(std::cout, {"network", "method", "fps", "dsp"});

  for (const auto& model : nn::zoo_model_names()) {
    const auto specs = nn::zoo_model_specs(model, nn::ObsSpec{3, 12, 12}, 6);
    accel::AcceleratorSpace space(4, nn::num_groups(specs));

    das::DasConfig cfg;
    cfg.iterations = das_iters;
    das::DasEngine engine(space, predictor, cfg);
    const auto das_result = engine.search(specs);
    const auto rnd = das::random_search(
        space, predictor, specs, cfg.iterations * cfg.samples_per_iter, 5);
    const auto dnnb = accel::dnnbuilder_eval(specs, predictor);
    const auto fa3c = accel::fa3c_eval(specs, predictor);

    table.add_row({model, util::TextTable::num(das_result.eval.fps),
                   util::TextTable::num(rnd.eval.fps),
                   util::TextTable::num(dnnb.fps),
                   util::TextTable::num(fa3c.fps),
                   std::to_string(das_result.eval.dsp_used)});
    csv.row({model, "das", util::TextTable::num(das_result.eval.fps),
             std::to_string(das_result.eval.dsp_used)});
    csv.row({model, "random", util::TextTable::num(rnd.eval.fps),
             std::to_string(rnd.eval.dsp_used)});
    csv.row({model, "dnnbuilder", util::TextTable::num(dnnb.fps),
             std::to_string(dnnb.dsp_used)});
    csv.row({model, "fa3c", util::TextTable::num(fa3c.fps),
             std::to_string(fa3c.dsp_used)});
  }

  std::cout << "\n";
  table.print(std::cout);

  // Optimality gap on an exhaustively-enumerable space.
  std::vector<nn::LayerSpec> tiny = {
      nn::LayerSpec::conv("c", 8, 16, 3, 1, 12, 12)};
  nn::assign_sequential_groups(tiny);
  accel::AcceleratorSpace small_space(1, 1);
  const auto optimum =
      das::exhaustive_search(small_space, predictor, tiny, 1e6);
  das::DasConfig cfg;
  cfg.iterations = 800;
  das::DasEngine engine(small_space, predictor, cfg);
  const auto das_small = engine.search(tiny);
  std::cout << "\nReduced-space optimality: exhaustive optimum "
            << util::TextTable::num(optimum.eval.fps) << " FPS ("
            << small_space.size() << " configs), DAS found "
            << util::TextTable::num(das_small.eval.fps) << " FPS ("
            << util::TextTable::num(
                   100.0 * das_small.eval.fps / optimum.eval.fps, 1)
            << "% of optimum).\n";
  return 0;
} catch (const util::InputError& e) {
  std::cerr << e.what() << "\n";
  return 2;
}
