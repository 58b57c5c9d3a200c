// Shared infrastructure for the paper-reproduction benchmark harnesses.
//
// Every bench binary regenerates one table or figure of the paper. Budgets
// are scaled-down (MiniArcade + proxy models, see DESIGN.md) and multiplied
// by A3CS_SCALE; evaluation defaults to 10 episodes with null-op starts
// (paper: 30) and can be raised with A3CS_EVAL_EPISODES.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "rl/a2c.h"
#include "rl/eval.h"
#include "rl/teacher.h"
#include "util/config.h"
#include "util/csv.h"
#include "util/table.h"

namespace a3cs::bench {

// The bench-standard A2C settings: the paper's rollout length (5), discount
// (0.99) and loss coefficients, with the learning rate and env count adapted
// to the scaled-down runs (16 envs, 2e-3 -> 2e-4).
rl::A2cConfig bench_a2c(const rl::LossCoefficients& coef,
                        std::uint64_t seed_value);

// Evaluation protocol for final scores.
rl::EvalConfig bench_eval(std::uint64_t seed_value = 4242);

// Quick evaluation for learning-curve points (fewer episodes).
rl::EvalConfig curve_eval(std::uint64_t seed_value);

// Teacher with bench-standard budget, cached under .a3cs_cache/teachers.
std::unique_ptr<nn::ActorCriticNet> bench_teacher(const std::string& game);

// Bench-standard co-search configuration (6-cell supernet space at bench
// scale; the full 12-cell space is available via A3CS_CELLS).
core::CoSearchConfig bench_cosearch(const std::string& game,
                                    std::uint64_t seed_value);

// Pretty banner with the experiment id and scaled budgets. Reads every knob
// a bench consults first; a malformed one prints one line and exits 2.
void banner(const std::string& experiment, const std::string& description);

}  // namespace a3cs::bench
