// The searchable accelerator design space (paper: "a parameterized
// micro-architecture with over 10^27 searchable choices of accelerators and
// dataflows"). Each knob is one categorical dimension; the DAS engine owns
// one GumbelCategorical per knob. decode() turns a per-knob choice vector
// into a concrete AcceleratorConfig for the predictor.
#pragma once

#include <string>
#include <vector>

#include "accel/hw_types.h"
#include "util/rng.h"

namespace a3cs::accel {

struct KnobSpec {
  std::string name;
  int num_choices = 0;
};

class AcceleratorSpace {
 public:
  // `num_groups` is the network's structural group count (layer-allocation
  // knobs are per group).
  AcceleratorSpace(int num_chunks, int num_groups);

  int num_chunks() const { return num_chunks_; }
  int num_groups() const { return num_groups_; }

  // Flat knob list: for each chunk {pe_rows, pe_cols, noc, dataflow,
  // tile_oc, tile_ic, buffer_split}, then one allocation knob per group.
  const std::vector<KnobSpec>& knobs() const { return knobs_; }
  int num_knobs() const { return static_cast<int>(knobs_.size()); }

  AcceleratorConfig decode(const std::vector<int>& choices) const;
  // The same decode into `out`, reusing its storage.
  void decode(const std::vector<int>& choices, AcceleratorConfig& out) const;
  std::vector<int> random_choices(util::Rng& rng) const;
  // The same draw into `out`, reusing its storage.
  void random_choices(util::Rng& rng, std::vector<int>& out) const;

  // Total number of distinct configurations (as a double; overflows int64).
  double size() const;
  double log10_size() const;

  // The discrete value sets (exposed for tests and exhaustive baselines).
  static const std::vector<int>& pe_dim_choices();
  static const std::vector<int>& tile_choices();
  static const std::vector<BufferSplit>& split_choices();

 private:
  int num_chunks_;
  int num_groups_;
  std::vector<KnobSpec> knobs_;
};

}  // namespace a3cs::accel
