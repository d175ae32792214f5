// The two serve workloads and the traced service run that feeds per-layer
// counters. Both drive the program only through serve::Service.
#pragma once

#include "common.hpp"
#include "fleet.hpp"
#include "serve/service.hpp"

namespace perfbench {

inline constexpr int kSequenceFrames = 16;
inline constexpr double kStreamRateHz = 1000.0;
inline constexpr double kSloMs = 100.0;

// A served fleet: inputs, plus a started service that owns the network.
// The fleet is declared first so it outlives the service (calibrators).
struct Rig {
  std::unique_ptr<Fleet> fleet;
  std::unique_ptr<m2ai::serve::Service> service;
};

// Timings of a run's set-ups: each whole set-up, and its source simulation.
struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> sim_s;
};

// Simulates the sources, loads the served network and starts the service.
// Repeated `repeats` times (all but the last rig are dropped); each set-up's
// timings are appended to *times.
Rig set_up_rig(const Options& opt, int repeats, SetupTimes* times);

// Counters of one service run, for the traced run's per-layer metrics.
struct ServiceCounters {
  m2ai::serve::ServiceStats stats;
  std::uint64_t offers = 0;
  std::uint64_t offers_refused = 0;
};

// serve_paced: open loop, 1 kHz per stream, wire frames through push_bytes,
// ref backend, obs off. With `traced`, the generator parses the frames
// itself and offers each report (what push_bytes does inside), with spans
// around both calls, so refusals can be counted.
Result run_serve_paced(const Options& opt, bool traced = false,
                       ServiceCounters* counters = nullptr);

// serve_saturate: closed loop through offer, fast backend, obs on.
Result run_serve_saturate(const Options& opt, bool traced = false,
                          ServiceCounters* counters = nullptr);

}  // namespace perfbench
