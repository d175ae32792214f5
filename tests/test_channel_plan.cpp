#include "rf/channel_plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace m2ai::rf {
namespace {

TEST(ChannelPlan, EndpointFrequencies) {
  EXPECT_DOUBLE_EQ(channel_frequency_hz(0), 902.75e6);
  EXPECT_DOUBLE_EQ(channel_frequency_hz(kNumChannels - 1), 927.25e6);
}

TEST(ChannelPlan, StepIs500kHz) {
  for (int ch = 1; ch < kNumChannels; ++ch) {
    EXPECT_DOUBLE_EQ(channel_frequency_hz(ch) - channel_frequency_hz(ch - 1), 0.5e6);
  }
}

TEST(ChannelPlan, WavelengthMatchesFrequency) {
  for (int ch : {0, 10, 25, 49}) {
    EXPECT_NEAR(channel_wavelength_m(ch) * channel_frequency_hz(ch), kSpeedOfLight, 1.0);
  }
}

TEST(ChannelPlan, NearestChannelRoundTrips) {
  for (int ch = 0; ch < kNumChannels; ++ch) {
    EXPECT_EQ(nearest_channel(channel_frequency_hz(ch)), ch);
  }
}

TEST(ChannelPlan, NearestChannelClamps) {
  EXPECT_EQ(nearest_channel(800e6), 0);
  EXPECT_EQ(nearest_channel(1000e6), kNumChannels - 1);
}

TEST(ChannelPlan, CommonChannelIs910_25MHz) {
  EXPECT_DOUBLE_EQ(channel_frequency_hz(common_channel()), 910.25e6);
}

TEST(ChannelPlan, TypicalWavelengthIsAbout32cm) {
  EXPECT_NEAR(kTypicalWavelengthM, 0.3293, 0.0005);
}

TEST(HopSequence, DwellSchedule) {
  HopSequence hops{util::Rng(1)};
  // Within one dwell the channel is constant.
  const int ch = hops.channel_at(0.01);
  EXPECT_EQ(hops.channel_at(0.2), ch);
  EXPECT_EQ(hops.channel_at(0.399), ch);
  EXPECT_EQ(hops.hop_index(0.399), 0);
  EXPECT_EQ(hops.hop_index(0.401), 1);
}

TEST(HopSequence, EveryChannelOncePerCycle) {
  HopSequence hops{util::Rng(2)};
  std::set<int> seen;
  for (int hop = 0; hop < kNumChannels; ++hop) {
    seen.insert(hops.channel_at((hop + 0.5) * kDwellTimeSec));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumChannels));
}

TEST(HopSequence, CyclesDifferInOrder) {
  HopSequence hops{util::Rng(3)};
  std::vector<int> cycle1, cycle2;
  for (int hop = 0; hop < kNumChannels; ++hop) {
    cycle1.push_back(hops.channel_at((hop + 0.5) * kDwellTimeSec));
    cycle2.push_back(hops.channel_at((kNumChannels + hop + 0.5) * kDwellTimeSec));
  }
  EXPECT_NE(cycle1, cycle2);
}

TEST(HopSequence, DeterministicForSeed) {
  HopSequence a{util::Rng(4)}, b{util::Rng(4)};
  for (int hop = 0; hop < 100; ++hop) {
    const double t = (hop + 0.3) * kDwellTimeSec;
    EXPECT_EQ(a.channel_at(t), b.channel_at(t));
  }
}

TEST(HopSequence, PinnedChannelsForSeed) {
  // The first 60 hops for seed 42; pins the cycle shuffle and its seeding.
  const std::vector<int> expected = {
      28, 10, 41, 14, 24, 45, 47, 44, 0,  7,  17, 43, 38, 27, 11, 26, 49, 20, 33, 3,
      4,  30, 34, 48, 19, 1,  29, 21, 9,  12, 6,  37, 35, 22, 31, 16, 18, 36, 40, 15,
      23, 32, 39, 13, 46, 25, 42, 5,  2,  8,  0,  45, 9,  41, 30, 49, 33, 23, 10, 6};
  HopSequence hops{util::Rng(42)};
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(hops.channel_at((static_cast<double>(k) + 0.5) * kDwellTimeSec), expected[k])
        << "hop " << k;
  }
}

TEST(HopSequence, NegativeTimesMapToValidChannels) {
  HopSequence hops{util::Rng(5)};
  EXPECT_EQ(hops.hop_index(-0.1), -1);
  const HopSlot last = hops.slot_at(-0.1);
  EXPECT_EQ(last.cycle, -1);
  EXPECT_EQ(last.position, kNumChannels - 1);
  EXPECT_EQ(hops.slot_at(-20.0).cycle, -1);
  EXPECT_EQ(hops.slot_at(-20.0).position, 0);
  EXPECT_EQ(hops.slot_at(-20.01).cycle, -2);
  // Cycle -1 (hops -50 .. -1) is a permutation like any other.
  std::set<int> seen;
  for (int hop = -kNumChannels; hop < 0; ++hop) {
    const int ch = hops.channel_at((hop + 0.5) * kDwellTimeSec);
    ASSERT_GE(ch, 0);
    ASSERT_LT(ch, kNumChannels);
    seen.insert(ch);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumChannels));
  for (const double t : {-1e300, -1e18, -123.456, 1e18, 1e300}) {
    const int ch = hops.channel_at(t);
    EXPECT_GE(ch, 0);
    EXPECT_LT(ch, kNumChannels);
  }
}

TEST(HopSequence, CycleOrderKeptPerCycleMatchesChannelAtOutOfOrder) {
  // Walk time forward keeping one cycle's order and expanding the next only
  // when the cycle changes (as Reader::run does), then ask a fresh sequence
  // for the same instants in shuffled order, back and forth across cycle
  // boundaries.
  HopSequence walker{util::Rng(9)};
  std::vector<double> times;
  std::vector<int> walked;
  long cycle = 0;
  std::vector<int> order;
  for (double t = -30.0; t < 70.0; t += 0.137) {
    const HopSlot slot = walker.slot_at(t);
    if (order.empty() || slot.cycle != cycle) {
      cycle = slot.cycle;
      order = walker.cycle_order(cycle);
    }
    times.push_back(t);
    walked.push_back(order[static_cast<std::size_t>(slot.position)]);
  }
  std::vector<std::size_t> idx(times.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  util::Rng shuffle(10);
  shuffle.shuffle(idx);
  HopSequence fresh{util::Rng(9)};
  for (const std::size_t i : idx) {
    ASSERT_EQ(fresh.channel_at(times[i]), walked[i]) << "t " << times[i];
  }
}

}  // namespace
}  // namespace m2ai::rf
