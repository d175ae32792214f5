// The FCC frequency-hopping channel plan of a UHF RFID reader.
#pragma once

#include <vector>

#include "rf/constants.hpp"
#include "util/rng.hpp"

namespace m2ai::rf {

// Center frequency (Hz) of channel index `ch` in [0, kNumChannels).
double channel_frequency_hz(int ch);

// Wavelength (m) at channel `ch`.
double channel_wavelength_m(int ch);

// Index of the channel closest to `freq_hz`; clamped to the plan.
int nearest_channel(double freq_hz);

// Index of the common/reference channel (910.25 MHz).
int common_channel();

// Where a hop falls in the plan: its 50-hop cycle and its position in that
// cycle's order, by floor division so negative hops stay in [0, kNumChannels).
struct HopSlot {
  long cycle = 0;
  int position = 0;
};

// A pseudo-random hopping sequence as mandated by FCC part 15: every channel
// is visited once per 50-hop cycle, in an order shuffled per cycle.
class HopSequence {
 public:
  explicit HopSequence(util::Rng rng);

  // Channel in use at time `t_sec` given the dwell time.
  int channel_at(double t_sec) const;

  // The hop index (monotonic counter) at time `t_sec`.
  long hop_index(double t_sec) const;

  // The cycle and position of the hop in use at time `t_sec`.
  HopSlot slot_at(double t_sec) const;

  // Deterministically expands cycle `c` into a permutation of all channels:
  // channel_at(t) == cycle_order(slot_at(t).cycle)[slot_at(t).position].
  // A caller walking time forward can keep one cycle's order and expand the
  // next only when the cycle changes.
  std::vector<int> cycle_order(long cycle) const;

 private:
  std::uint64_t base_seed_;
};

}  // namespace m2ai::rf
