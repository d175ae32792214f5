// train_offline: the reproduction user's job — generate_dataset, Trainer::fit,
// evaluate — on 4 threads under the ref backend with obs off.
#pragma once

#include "common.hpp"
#include "core/experiment.hpp"

namespace perfbench {

inline constexpr int kTrainThreads = 4;

// The workload's experiment: `m2ai train --samples 24 --epochs 20`.
m2ai::core::ExperimentConfig train_config(std::uint64_t seed);
// The held-out set evaluated beside the test split: same size, own seed.
m2ai::core::ExperimentConfig held_out_config(const m2ai::core::ExperimentConfig& config);

// One timed set-up.
double train_set_up(const m2ai::core::ExperimentConfig& config);

Result run_train_offline(const Options& opt);

}  // namespace perfbench
