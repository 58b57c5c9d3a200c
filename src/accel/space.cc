#include "accel/space.h"

#include <cmath>

#include "util/logging.h"

namespace a3cs::accel {

const std::vector<int>& AcceleratorSpace::pe_dim_choices() {
  static const std::vector<int> v = {2, 4, 6, 8, 12, 16, 24, 32};
  return v;
}

const std::vector<int>& AcceleratorSpace::tile_choices() {
  static const std::vector<int> v = {4, 8, 16, 32};
  return v;
}

const std::vector<BufferSplit>& AcceleratorSpace::split_choices() {
  static const std::vector<BufferSplit> v = {
      {0.50, 0.30, 0.20}, {0.30, 0.50, 0.20}, {0.20, 0.30, 0.50},
      {0.40, 0.40, 0.20}, {0.34, 0.33, 0.33}, {0.60, 0.20, 0.20},
  };
  return v;
}

AcceleratorSpace::AcceleratorSpace(int num_chunks, int num_groups)
    : num_chunks_(num_chunks), num_groups_(num_groups) {
  A3CS_CHECK(num_chunks >= 1, "need at least one chunk");
  A3CS_CHECK(num_groups >= 1, "need at least one layer group");
  for (int c = 0; c < num_chunks; ++c) {
    const std::string p = "chunk" + std::to_string(c) + ".";
    knobs_.push_back({p + "pe_rows", static_cast<int>(pe_dim_choices().size())});
    knobs_.push_back({p + "pe_cols", static_cast<int>(pe_dim_choices().size())});
    knobs_.push_back({p + "noc", 3});
    knobs_.push_back({p + "dataflow", 3});
    knobs_.push_back({p + "tile_oc", static_cast<int>(tile_choices().size())});
    knobs_.push_back({p + "tile_ic", static_cast<int>(tile_choices().size())});
    knobs_.push_back({p + "split", static_cast<int>(split_choices().size())});
  }
  for (int g = 0; g < num_groups; ++g) {
    knobs_.push_back({"group" + std::to_string(g) + ".chunk", num_chunks});
  }
}

AcceleratorConfig AcceleratorSpace::decode(
    const std::vector<int>& choices) const {
  AcceleratorConfig cfg;
  decode(choices, cfg);
  return cfg;
}

void AcceleratorSpace::decode(const std::vector<int>& choices,
                              AcceleratorConfig& cfg) const {
  A3CS_CHECK(static_cast<int>(choices.size()) == num_knobs(),
             "decode: choice count mismatch");
  cfg.chunks.resize(static_cast<std::size_t>(num_chunks_));
  int k = 0;
  for (ChunkConfig& chunk : cfg.chunks) {
    chunk.pe_rows = pe_dim_choices()[static_cast<std::size_t>(choices[k++])];
    chunk.pe_cols = pe_dim_choices()[static_cast<std::size_t>(choices[k++])];
    chunk.noc = static_cast<Noc>(choices[k++]);
    chunk.dataflow = static_cast<Dataflow>(choices[k++]);
    chunk.tile_oc = tile_choices()[static_cast<std::size_t>(choices[k++])];
    chunk.tile_ic = tile_choices()[static_cast<std::size_t>(choices[k++])];
    chunk.split = split_choices()[static_cast<std::size_t>(choices[k++])];
  }
  cfg.group_to_chunk.resize(static_cast<std::size_t>(num_groups_));
  for (int g = 0; g < num_groups_; ++g) {
    cfg.group_to_chunk[static_cast<std::size_t>(g)] = choices[k++];
  }
}

std::vector<int> AcceleratorSpace::random_choices(util::Rng& rng) const {
  std::vector<int> out;
  random_choices(rng, out);
  return out;
}

void AcceleratorSpace::random_choices(util::Rng& rng,
                                      std::vector<int>& out) const {
  out.clear();
  out.reserve(knobs_.size());
  for (const KnobSpec& k : knobs_) out.push_back(rng.uniform_int(k.num_choices));
}

double AcceleratorSpace::size() const {
  double s = 1.0;
  for (const KnobSpec& k : knobs_) s *= static_cast<double>(k.num_choices);
  return s;
}

double AcceleratorSpace::log10_size() const {
  double s = 0.0;
  for (const KnobSpec& k : knobs_) s += std::log10(k.num_choices);
  return s;
}

}  // namespace a3cs::accel
