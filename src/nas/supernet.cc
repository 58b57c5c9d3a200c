#include "nas/supernet.h"

#include <cmath>
#include <istream>
#include <ostream>

#include "obs/profile.h"
#include "util/logging.h"
#include "util/state_io.h"

namespace a3cs::nas {

Supernet::Supernet(const nn::ObsSpec& obs, SupernetConfig cfg, util::Rng& rng)
    : cfg_(cfg),
      geometry_(space_geometry(obs, cfg.space)),
      tau_(cfg.tau_init),
      sampler_(cfg.sample_seed),
      stem_("stem", obs.channels, geometry_.stem.out_c, 3, 2, 1, rng),
      stem_relu_("stem.relu"),
      flatten_("flatten"),
      fc_("fc", geometry_.fc.in_c, geometry_.feature_dim, rng),
      fc_relu_("fc.relu") {
  for (std::size_t i = 0; i < geometry_.cells.size(); ++i) {
    const CellGeometry& cg = geometry_.cells[i];
    cells_.push_back(std::make_unique<MixedOp>(
        "cell" + std::to_string(i), cg.in_c, cg.out_c, cg.stride, rng,
        &sampler_, &tau_, cfg.backward_paths));
  }
}

nn::Tensor Supernet::forward(const nn::Tensor& x) {
  A3CS_PROF_SCOPE("supernet-forward");
  nn::Tensor cur = stem_relu_.forward(stem_.forward(x));
  for (auto& cell : cells_) cur = cell->forward(cur);
  return fc_relu_.forward(fc_.forward(flatten_.forward(cur)));
}

nn::Tensor Supernet::infer(nn::Tensor x) {
  A3CS_PROF_SCOPE("supernet-infer");
  x = stem_relu_.infer(stem_.infer(std::move(x)));
  for (auto& cell : cells_) x = cell->infer(std::move(x));
  return fc_relu_.infer(fc_.infer(flatten_.infer(std::move(x))));
}

nn::Tensor Supernet::backward(const nn::Tensor& grad_out) {
  A3CS_PROF_SCOPE("supernet-backward");
  nn::Tensor cur =
      flatten_.backward(fc_.backward(fc_relu_.backward(grad_out)));
  for (auto it = cells_.rbegin(); it != cells_.rend(); ++it) {
    cur = (*it)->backward(cur);
  }
  return stem_.backward(stem_relu_.backward(cur));
}

void Supernet::collect_parameters(std::vector<nn::Parameter*>& out) {
  stem_.collect_parameters(out);
  for (auto& cell : cells_) cell->collect_parameters(out);
  fc_.collect_parameters(out);
}

std::vector<nn::Parameter*> Supernet::alpha_params() {
  std::vector<nn::Parameter*> out;
  for (auto& cell : cells_) out.push_back(&cell->alpha().param());
  return out;
}

void Supernet::zero_alpha_grads() {
  for (nn::Parameter* p : alpha_params()) p->grad.zero();
}

std::vector<int> Supernet::last_choices() const {
  std::vector<int> out;
  out.reserve(cells_.size());
  for (const auto& cell : cells_) out.push_back(cell->last_choice());
  return out;
}

DerivedArch Supernet::derive() const {
  DerivedArch arch;
  arch.choices.reserve(cells_.size());
  for (const auto& cell : cells_) arch.choices.push_back(cell->best_choice());
  return arch;
}

std::vector<double> Supernet::alpha_entropies() const {
  std::vector<double> out;
  out.reserve(cells_.size());
  for (const auto& cell : cells_) {
    const std::vector<float> probs = cell->alpha().probabilities(1.0);
    double h = 0.0;
    for (const float p : probs) {
      if (p > 0.0f) h -= static_cast<double>(p) * std::log(p);
    }
    out.push_back(h);
  }
  return out;
}

void Supernet::set_argmax_mode(bool on) {
  for (auto& cell : cells_) cell->set_argmax_mode(on);
}

void Supernet::save_search_state(std::ostream& out) const {
  namespace sio = util::sio;
  sio::put_u32(out, static_cast<std::uint32_t>(cells_.size()));
  sio::put_f64(out, tau_);
  sio::put_rng(out, sampler_);
}

void Supernet::load_search_state(std::istream& in) {
  namespace sio = util::sio;
  const std::uint32_t n = sio::get_u32(in);
  A3CS_CHECK(n == cells_.size(),
             "Supernet::load_search_state: cell count mismatch");
  tau_ = sio::get_f64(in);
  sio::get_rng(in, sampler_);
}

std::vector<nn::LayerSpec> Supernet::specs_for(
    const std::vector<int>& choices) const {
  A3CS_CHECK(choices.size() == cells_.size(),
             "specs_for: choice count mismatch");
  std::vector<nn::LayerSpec> specs;
  specs.push_back(geometry_.stem);
  specs.back().group = 0;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    auto cs = cell_specs(static_cast<int>(i), choices[i]);
    specs.insert(specs.end(), cs.begin(), cs.end());
  }
  specs.push_back(geometry_.fc);
  specs.back().group = num_cells() + 1;
  return specs;
}

std::vector<nn::LayerSpec> Supernet::cell_specs(int cell,
                                                int op_index) const {
  A3CS_CHECK(cell >= 0 && cell < num_cells(), "cell_specs: bad cell index");
  const CellGeometry& cg = geometry_.cells[static_cast<std::size_t>(cell)];
  auto specs = candidate_specs(op_index, "cell" + std::to_string(cell),
                               cg.in_c, cg.out_c, cg.stride, cg.in_h, cg.in_w);
  for (auto& ls : specs) ls.group = cell + 1;
  return specs;
}

}  // namespace a3cs::nas
