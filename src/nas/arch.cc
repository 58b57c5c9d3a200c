#include "nas/arch.h"

#include <cmath>

#include "nn/layers.h"
#include "util/config.h"
#include "util/logging.h"

namespace a3cs::nas {

SpaceGeometry space_geometry(const nn::ObsSpec& obs,
                             const SearchSpaceConfig& cfg) {
  A3CS_CHECK(cfg.num_cells >= 3, "need at least one cell per stage");
  SpaceGeometry g;
  const int w0 = cfg.base_width;
  g.stem = nn::LayerSpec::conv("stem", obs.channels, w0, 3, 2, obs.height,
                               obs.width);
  int c = w0;
  int h = g.stem.out_h, w = g.stem.out_w;

  // Distribute cells over 3 stages as evenly as possible (4/4/4 at 12).
  const int per_stage = cfg.num_cells / 3;
  const int remainder = cfg.num_cells % 3;
  int cell_idx = 0;
  for (int stage = 0; stage < 3; ++stage) {
    const int count = per_stage + (stage < remainder ? 1 : 0);
    const int stage_width = w0 << stage;  // w, 2w, 4w
    for (int i = 0; i < count; ++i) {
      CellGeometry cg;
      cg.in_c = c;
      cg.out_c = stage_width;
      cg.stride = (stage > 0 && i == 0) ? 2 : 1;
      cg.in_h = h;
      cg.in_w = w;
      cg.out_h = (h + cg.stride - 1) / cg.stride;
      cg.out_w = (w + cg.stride - 1) / cg.stride;
      g.cells.push_back(cg);
      c = cg.out_c;
      h = cg.out_h;
      w = cg.out_w;
      ++cell_idx;
    }
  }
  (void)cell_idx;

  g.feature_dim = 256;
  g.fc = nn::LayerSpec::linear("fc", c * h * w, g.feature_dim);
  return g;
}

double search_space_size(const SearchSpaceConfig& cfg) {
  return std::pow(static_cast<double>(candidate_ops().size()),
                  static_cast<double>(cfg.num_cells));
}

std::string DerivedArch::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) out += "-";
    out += candidate_ops()[static_cast<std::size_t>(choices[i])].id;
  }
  return out;
}

DerivedArch DerivedArch::from_string(const std::string& s) {
  DerivedArch arch;
  const auto& ops = candidate_ops();
  for (const std::string& tok : util::split(s, '-')) {
    int idx = -1;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].id == tok) {
        idx = static_cast<int>(i);
        break;
      }
    }
    A3CS_CHECK(idx >= 0, "from_string: unknown operator id '" + tok + "'");
    arch.choices.push_back(idx);
  }
  return arch;
}

DerivedArch DerivedArch::random(const SearchSpaceConfig& cfg,
                                util::Rng& rng) {
  DerivedArch arch;
  arch.choices.resize(static_cast<std::size_t>(cfg.num_cells));
  for (int& c : arch.choices) {
    c = rng.uniform_int(static_cast<int>(candidate_ops().size()));
  }
  return arch;
}

nn::BackboneBuild build_derived_backbone(const DerivedArch& arch,
                                         const nn::ObsSpec& obs,
                                         const SearchSpaceConfig& cfg,
                                         util::Rng& rng) {
  const SpaceGeometry g = space_geometry(obs, cfg);
  A3CS_CHECK(arch.choices.size() == g.cells.size(),
             "arch choice count does not match search space");
  auto seq = std::make_unique<nn::Sequential>("derived");
  std::vector<nn::LayerSpec> specs;

  seq->add(std::make_unique<nn::Conv2d>("stem", obs.channels, g.stem.out_c, 3,
                                        2, 1, rng));
  seq->add(std::make_unique<nn::ReLU>("stem.relu"));
  specs.push_back(g.stem);
  specs.back().group = 0;

  for (std::size_t i = 0; i < g.cells.size(); ++i) {
    const CellGeometry& cg = g.cells[i];
    const std::string name = "cell" + std::to_string(i);
    seq->add(make_candidate(arch.choices[i], name, cg.in_c, cg.out_c,
                            cg.stride, rng));
    auto cell_layer_specs = candidate_specs(arch.choices[i], name, cg.in_c,
                                            cg.out_c, cg.stride, cg.in_h,
                                            cg.in_w);
    for (auto& ls : cell_layer_specs) ls.group = static_cast<int>(i) + 1;
    specs.insert(specs.end(), cell_layer_specs.begin(),
                 cell_layer_specs.end());
  }

  seq->add(std::make_unique<nn::Flatten>());
  seq->add(std::make_unique<nn::Linear>("fc", g.fc.in_c, g.feature_dim, rng));
  seq->add(std::make_unique<nn::ReLU>("fc.relu"));
  specs.push_back(g.fc);
  specs.back().group = static_cast<int>(g.cells.size()) + 1;

  nn::BackboneBuild out;
  out.module = std::move(seq);
  out.specs = std::move(specs);
  out.feature_dim = g.feature_dim;
  return out;
}

std::vector<nn::LayerSpec> derived_specs(const DerivedArch& arch,
                                         const nn::ObsSpec& obs,
                                         const SearchSpaceConfig& cfg) {
  const SpaceGeometry g = space_geometry(obs, cfg);
  A3CS_CHECK(arch.choices.size() == g.cells.size(),
             "arch choice count does not match search space");
  std::vector<nn::LayerSpec> specs;
  specs.push_back(g.stem);
  specs.back().group = 0;
  for (std::size_t i = 0; i < g.cells.size(); ++i) {
    const CellGeometry& cg = g.cells[i];
    auto cell_layer_specs =
        candidate_specs(arch.choices[i], "cell" + std::to_string(i), cg.in_c,
                        cg.out_c, cg.stride, cg.in_h, cg.in_w);
    for (auto& ls : cell_layer_specs) ls.group = static_cast<int>(i) + 1;
    specs.insert(specs.end(), cell_layer_specs.begin(),
                 cell_layer_specs.end());
  }
  specs.push_back(g.fc);
  specs.back().group = static_cast<int>(g.cells.size()) + 1;
  return specs;
}

}  // namespace a3cs::nas
