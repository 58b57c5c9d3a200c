// The Conv2d geometries a 6-cell co-search on 12x12 arcade frames runs, for
// the conv kernel tests: the supernet stem, every cell's plain conv
// candidates and inverted-residual 1x1 expand/project convs, and the
// ResNet-20 teacher's convs, each at the rollout batch (8 envs) and the
// 5-step update batch (40). Duplicate geometries are listed once.
#pragma once

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "nas/arch.h"
#include "nas/ops.h"
#include "nn/layer_spec.h"
#include "nn/zoo.h"

namespace a3cs::testing {

struct ConvShape {
  int n, in_c, out_c, kernel, stride, h, w;

  int pad() const { return kernel / 2; }
  int ckk() const { return in_c * kernel * kernel; }
  int oh() const { return (h + 2 * pad() - kernel) / stride + 1; }
  int ow() const { return (w + 2 * pad() - kernel) / stride + 1; }
  int cps() const { return oh() * ow(); }
  int batch_cols() const { return n * cps(); }
  std::string label() const {
    return "n" + std::to_string(n) + " " + std::to_string(in_c) + "->" +
           std::to_string(out_c) + " k" + std::to_string(kernel) + " s" +
           std::to_string(stride) + " " + std::to_string(h) + "x" +
           std::to_string(w);
  }
};

inline std::vector<ConvShape> search_conv_shapes() {
  const nn::ObsSpec obs{3, 12, 12};
  std::vector<nn::LayerSpec> specs = nn::zoo_model_specs("ResNet-20", obs, 4);
  nas::SearchSpaceConfig cfg;
  cfg.num_cells = 6;
  const nas::SpaceGeometry space = nas::space_geometry(obs, cfg);
  specs.push_back(space.stem);
  for (const nas::CellGeometry& cell : space.cells) {
    for (int op = 0; op < static_cast<int>(nas::candidate_ops().size()); ++op) {
      for (const nn::LayerSpec& s :
           nas::candidate_specs(op, "cell", cell.in_c, cell.out_c, cell.stride,
                                cell.in_h, cell.in_w)) {
        specs.push_back(s);
      }
    }
  }
  std::vector<ConvShape> shapes;
  for (const nn::LayerSpec& s : specs) {
    if (s.kind != nn::LayerSpec::Kind::kConv) continue;
    for (const int n : {8, 40}) {
      const ConvShape c{n, s.in_c, s.out_c, s.kernel, s.stride, s.in_h, s.in_w};
      const auto key = [](const ConvShape& x) {
        return std::tie(x.n, x.in_c, x.out_c, x.kernel, x.stride, x.h, x.w);
      };
      if (std::none_of(shapes.begin(), shapes.end(),
                       [&](const ConvShape& o) { return key(o) == key(c); })) {
        shapes.push_back(c);
      }
    }
  }
  return shapes;
}

}  // namespace a3cs::testing
