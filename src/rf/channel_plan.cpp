#include "rf/channel_plan.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace m2ai::rf {

double channel_frequency_hz(int ch) {
  return kBandLowHz + kBandStepHz * static_cast<double>(ch);
}

double channel_wavelength_m(int ch) {
  return kSpeedOfLight / channel_frequency_hz(ch);
}

int nearest_channel(double freq_hz) {
  const double raw = (freq_hz - kBandLowHz) / kBandStepHz;
  const int ch = static_cast<int>(std::lround(raw));
  return std::clamp(ch, 0, kNumChannels - 1);
}

int common_channel() { return nearest_channel(kCommonFrequencyHz); }

HopSequence::HopSequence(util::Rng rng) : base_seed_(rng.next_u64()) {}

long HopSequence::hop_index(double t_sec) const {
  // Clamped so every finite time converts to a defined hop count; the clamp
  // only bites beyond 2^62 dwells.
  return static_cast<long>(std::clamp(std::floor(t_sec / kDwellTimeSec), -0x1p62, 0x1p62));
}

std::vector<int> HopSequence::cycle_order(long cycle) const {
  std::vector<int> order(kNumChannels);
  std::iota(order.begin(), order.end(), 0);
  util::Rng cycle_rng(base_seed_ ^ (0x5851f42d4c957f2dULL * static_cast<std::uint64_t>(cycle + 1)));
  cycle_rng.shuffle(order);
  return order;
}

HopSlot HopSequence::slot_at(double t_sec) const {
  const long hop = hop_index(t_sec);
  long cycle = hop / kNumChannels;
  long pos = hop % kNumChannels;
  if (pos < 0) {
    pos += kNumChannels;
    --cycle;
  }
  return HopSlot{cycle, static_cast<int>(pos)};
}

int HopSequence::channel_at(double t_sec) const {
  const HopSlot slot = slot_at(t_sec);
  return cycle_order(slot.cycle)[static_cast<std::size_t>(slot.position)];
}

}  // namespace m2ai::rf
