#include "accel/predictor.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/logging.h"

namespace a3cs::accel {

const char* to_string(Noc n) {
  switch (n) {
    case Noc::kSystolic: return "systolic";
    case Noc::kBroadcast: return "broadcast";
    case Noc::kMulticast: return "multicast";
  }
  return "?";
}

const char* to_string(Dataflow d) {
  switch (d) {
    case Dataflow::kWeightStationary: return "WS";
    case Dataflow::kOutputStationary: return "OS";
    case Dataflow::kRowStationary: return "RS";
  }
  return "?";
}

std::string AcceleratorConfig::to_string() const {
  std::ostringstream oss;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ChunkConfig& c = chunks[i];
    oss << "chunk" << i << "{" << c.pe_rows << "x" << c.pe_cols << ","
        << accel::to_string(c.noc) << "," << accel::to_string(c.dataflow)
        << ",toc=" << c.tile_oc << ",tic=" << c.tile_ic << ",buf="
        << c.split.input << "/" << c.split.weight << "/" << c.split.output
        << "} ";
  }
  oss << "alloc=[";
  for (std::size_t i = 0; i < group_to_chunk.size(); ++i) {
    if (i > 0) oss << ",";
    oss << group_to_chunk[i];
  }
  oss << "]";
  return oss.str();
}

double HwEval::group_cycles(const std::vector<nn::LayerSpec>& specs,
                            int group) const {
  A3CS_CHECK(specs.size() == layers.size(), "group_cycles: size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].group == group) total += layers[i].cycles;
  }
  return total;
}

std::string HwEval::report() const {
  std::ostringstream oss;
  oss << (feasible ? "FEASIBLE" : "INFEASIBLE") << " | FPS " << fps
      << " | II " << ii_cycles << " cyc | latency " << latency_cycles
      << " cyc | energy " << energy_nj / 1e3 << " uJ | DSP " << dsp_used
      << " | BRAM18K " << bram_used << "\n";
  for (std::size_t c = 0; c < chunk_cycles.size(); ++c) {
    oss << "  chunk" << c << ": " << chunk_cycles[c] << " cyc\n";
  }
  return oss.str();
}

Predictor::Predictor(FpgaBudget budget, EnergyModel energy,
                     CostWeights weights)
    : budget_(budget), energy_(energy), weights_(weights) {}

PreparedNetwork prepare_network(const std::vector<nn::LayerSpec>& specs) {
  using Kind = nn::LayerSpec::Kind;
  PreparedNetwork net;
  net.num_groups = nn::num_groups(specs);
  net.layers.reserve(specs.size());
  for (const nn::LayerSpec& spec : specs) {
    LayerWorkload& wl = net.layers.emplace_back();
    wl.macs = static_cast<double>(spec.macs());
    // Depthwise layers have no input-channel reduction to parallelize, which
    // is exactly why dataflow choice matters per layer.
    wl.ic = spec.kind == Kind::kDepthwiseConv ? 1 : spec.in_c;
    wl.oc = spec.out_c;
    wl.out_h = spec.out_h;
    wl.out_w = spec.out_w;
    wl.kernel = spec.kernel;
    wl.group = spec.group;
    wl.in_bytes = static_cast<double>(spec.input_elems()) * 2.0;
    wl.w_bytes = static_cast<double>(spec.weight_elems()) * 2.0;
    wl.out_bytes = static_cast<double>(spec.output_elems()) * 2.0;
    wl.psum_bytes = static_cast<double>(spec.output_elems()) * 4.0;
  }
  return net;
}

LayerCost Predictor::layer_cost(const LayerWorkload& wl,
                                const ChunkConfig& chunk,
                                double chunk_sram_bytes,
                                double bytes_per_cycle) const {
  LayerCost out;

  const double macs = wl.macs;

  // --- effective parallelism under the chosen dataflow ------------------
  const int ic = wl.ic;
  const int oc = wl.oc;
  double par = 1.0;
  switch (chunk.dataflow) {
    case Dataflow::kWeightStationary: {
      const int p_ic = std::min({chunk.pe_rows, ic, chunk.tile_ic});
      const int p_oc = std::min({chunk.pe_cols, oc, chunk.tile_oc});
      par = static_cast<double>(p_ic) * p_oc;
      break;
    }
    case Dataflow::kOutputStationary: {
      const int p_h = std::min(chunk.pe_rows, wl.out_h);
      const int p_w = std::min(chunk.pe_cols, wl.out_w);
      par = static_cast<double>(p_h) * p_w;
      break;
    }
    case Dataflow::kRowStationary: {
      const int p_k = std::min(chunk.pe_rows, wl.kernel * wl.kernel);
      const int p_r = std::min(chunk.pe_cols, wl.out_h * std::min(oc, 4));
      par = static_cast<double>(p_k) * p_r;
      break;
    }
  }
  par = std::max(1.0, par);

  // --- NoC efficiency ----------------------------------------------------
  double noc_eff = 1.0;
  double fill_drain = 0.0;
  const int tiles = std::max(1, (oc + chunk.tile_oc - 1) / chunk.tile_oc) *
                    std::max(1, (ic + chunk.tile_ic - 1) / chunk.tile_ic);
  switch (chunk.noc) {
    case Noc::kSystolic:
      // Perfect streaming efficiency but a (rows + cols)-cycle pipeline
      // fill/drain per tile pass.
      fill_drain = static_cast<double>(tiles) *
                   (chunk.pe_rows + chunk.pe_cols);
      break;
    case Noc::kBroadcast:
      // Fanout wiring limits achievable clock utilization on big arrays.
      noc_eff = chunk.num_pes() > 256 ? 0.80 : 0.92;
      break;
    case Noc::kMulticast:
      noc_eff = 0.97;
      break;
  }

  out.compute_cycles = macs / (par * noc_eff) + fill_drain;

  // --- memory traffic ------------------------------------------------------
  const double in_bytes = wl.in_bytes;
  const double w_bytes = wl.w_bytes;
  const double out_bytes = wl.out_bytes;
  const double psum_bytes = wl.psum_bytes;

  const double cap_in = chunk.split.input * chunk_sram_bytes;
  const double cap_w = chunk.split.weight * chunk_sram_bytes;
  const double cap_out = chunk.split.output * chunk_sram_bytes;

  const int oc_tiles = std::max(1, (oc + chunk.tile_oc - 1) / chunk.tile_oc);
  const int ic_tiles = std::max(1, (ic + chunk.tile_ic - 1) / chunk.tile_ic);

  // Inputs are re-read once per output-channel tile unless the whole input
  // (double-buffered) fits on chip.
  const double in_refetch = (2.0 * in_bytes <= cap_in)
                                ? 1.0
                                : static_cast<double>(oc_tiles);
  // Weights stream once; a weight-stationary chunk keeps the working set
  // resident, other dataflows re-read per output-row pass when too large.
  double w_refetch = 1.0;
  if (2.0 * w_bytes > cap_w &&
      chunk.dataflow != Dataflow::kWeightStationary) {
    w_refetch = std::min<double>(4.0, std::max(1, wl.out_h / 4));
  }
  // Partial sums spill per input-channel tile when the accumulators don't
  // fit on chip.
  const double out_spill =
      (psum_bytes <= cap_out) ? 1.0 : static_cast<double>(ic_tiles);

  const double moved = in_bytes * in_refetch + w_bytes * w_refetch +
                       out_bytes * out_spill +
                       (out_spill > 1.0 ? out_bytes * (out_spill - 1.0) : 0.0);
  out.memory_cycles = moved / std::max(1e-9, bytes_per_cycle);

  // On-chip working set actually held (capped by the slice capacities).
  out.sram_bytes = std::min(2.0 * in_bytes, cap_in) +
                   std::min(2.0 * w_bytes, cap_w) +
                   std::min(psum_bytes, cap_out);
  out.dram_bytes = moved;

  // Energy: every MAC, every off-chip byte, and an SRAM access per operand
  // per MAC (dataflow reuse folded into a flat 3-access-per-MAC estimate,
  // the granularity the search actually needs).
  out.energy_nj = macs * energy_.mac_nj +
                  moved * energy_.dram_per_byte_nj +
                  3.0 * macs * 2.0 * energy_.sram_per_byte_nj / 8.0;

  // Tiny layers are latency- rather than throughput-bound: charge a fixed
  // per-layer launch overhead.
  constexpr double kLaunchOverheadCycles = 64.0;
  out.compute_cycles += kLaunchOverheadCycles;

  out.cycles = std::max(out.compute_cycles, out.memory_cycles);
  return out;
}

HwEval Predictor::evaluate(const std::vector<nn::LayerSpec>& specs,
                           const AcceleratorConfig& config) const {
  return evaluate(prepare_network(specs), config);
}

HwEval Predictor::evaluate(const PreparedNetwork& net,
                           const AcceleratorConfig& config) const {
  A3CS_PROF_SCOPE("predictor-eval");
  static obs::Counter& evals =
      obs::MetricsRegistry::global().counter("predictor.evals");
  evals.inc();
  A3CS_CHECK(!config.chunks.empty(), "accelerator needs at least one chunk");
  A3CS_CHECK(static_cast<int>(config.group_to_chunk.size()) >= net.num_groups,
             "group_to_chunk smaller than the network's group count");

  HwEval eval;
  eval.layers.reserve(net.layers.size());
  eval.chunk_cycles.assign(static_cast<std::size_t>(config.num_chunks()), 0.0);

  // Resources: 1 DSP per PE; SRAM and DRAM bandwidth shared in proportion to
  // each chunk's PE allocation (bigger stages get bigger buffers).
  int total_pes = 0;
  for (const ChunkConfig& c : config.chunks) total_pes += c.num_pes();
  eval.dsp_used = total_pes;

  const double bytes_per_cycle_total = budget_.dram_bytes_per_cycle;
  const double sram_total = budget_.bram_bytes();

  std::vector<double> chunk_sram_needed(
      static_cast<std::size_t>(config.num_chunks()), 0.0);
  for (const LayerWorkload& wl : net.layers) {
    const int chunk_idx =
        config.group_to_chunk[static_cast<std::size_t>(wl.group)];
    A3CS_CHECK(chunk_idx >= 0 && chunk_idx < config.num_chunks(),
               "layer allocated to a nonexistent chunk");
    const ChunkConfig& chunk =
        config.chunks[static_cast<std::size_t>(chunk_idx)];
    const double share =
        static_cast<double>(chunk.num_pes()) / std::max(1, total_pes);
    LayerCost lc = layer_cost(wl, chunk, sram_total * share,
                              bytes_per_cycle_total * share);
    lc.chunk = chunk_idx;
    eval.energy_nj += lc.energy_nj;
    eval.chunk_cycles[static_cast<std::size_t>(chunk_idx)] += lc.cycles;
    chunk_sram_needed[static_cast<std::size_t>(chunk_idx)] =
        std::max(chunk_sram_needed[static_cast<std::size_t>(chunk_idx)],
                 lc.sram_bytes);
    eval.layers.push_back(lc);
  }

  eval.latency_cycles = 0.0;
  eval.ii_cycles = 0.0;
  for (double c : eval.chunk_cycles) {
    eval.latency_cycles += c;
    eval.ii_cycles = std::max(eval.ii_cycles, c);
  }

  // BRAM usage: the largest working set each chunk actually holds (its
  // buffers are sized to its heaviest assigned layer).
  eval.bram_used = 0.0;
  for (int c = 0; c < config.num_chunks(); ++c) {
    eval.bram_used +=
        std::ceil(chunk_sram_needed[static_cast<std::size_t>(c)] / 2304.0);
  }

  // Feasibility.
  double overflow = 0.0;
  if (eval.dsp_used > budget_.dsp) {
    overflow += static_cast<double>(eval.dsp_used - budget_.dsp) / budget_.dsp;
  }
  if (eval.bram_used > budget_.bram18k) {
    overflow += (eval.bram_used - budget_.bram18k) / budget_.bram18k;
  }
  eval.resource_overflow = overflow;
  eval.feasible = overflow == 0.0;
  eval.fps = eval.feasible
                 ? budget_.clock_mhz * 1e6 / std::max(1.0, eval.ii_cycles)
                 : 0.0;
  return eval;
}

double Predictor::scalar_cost(const HwEval& eval) const {
  // Weighted II (milli-seconds at the target clock) and energy (uJ), plus a
  // strong but smooth resource barrier.
  const double ii_ms = eval.ii_cycles / (budget_.clock_mhz * 1e3);
  const double energy_uj = eval.energy_nj * 1e-3;
  return weights_.latency * ii_ms + weights_.energy * energy_uj +
         weights_.barrier * eval.resource_overflow;
}

}  // namespace a3cs::accel
