#include "sim/reader.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>

#include "dsp/phase.hpp"
#include "sim/activities.hpp"

namespace m2ai::sim {
namespace {

Scene make_scene(int num_persons = 1, int tags_per_person = 3,
                 double distance = 4.0, std::uint64_t seed = 11) {
  Environment env = Environment::laboratory();
  ArrayGeometry array;
  array.center = Vec3{env.width / 2.0, 0.4, 1.25};
  util::Rng rng(seed);
  PlacementOptions placement;
  placement.distance_m = distance;
  auto persons =
      instantiate_activity(1, num_persons, env, array.origin2d(), placement, rng);
  return Scene(env, std::move(persons), array, tags_per_person);
}

TEST(Reader, ReportsWithinRequestedInterval) {
  Scene scene = make_scene();
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(1));
  const auto reports = reader.run(scene, 2.0, 4.0);
  EXPECT_FALSE(reports.empty());
  for (const auto& r : reports) {
    EXPECT_GE(r.time_sec, 2.0);
    EXPECT_LT(r.time_sec, 4.0);
  }
}

TEST(Reader, ReportsSortedByTime) {
  Scene scene = make_scene();
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(2));
  const auto reports = reader.run(scene, 0.0, 3.0);
  for (std::size_t i = 1; i < reports.size(); ++i) {
    EXPECT_LE(reports[i - 1].time_sec, reports[i].time_sec);
  }
}

TEST(Reader, QuantizePhaseBoundaryWrapsToZero) {
  const double step = 2.0 * M_PI / 4096.0;
  // A phase just under 2*pi rounds up to step 4096 — exactly 2*pi — and must
  // wrap to 0.0 so the report stays in [0, 2*pi) even without a later
  // wrap_2pi.
  EXPECT_EQ(quantize_phase(2.0 * M_PI - step / 4.0), 0.0);
  EXPECT_EQ(quantize_phase(2.0 * M_PI), 0.0);
  EXPECT_EQ(quantize_phase(0.0), 0.0);
  // Mid-range values land on the nearest grid point.
  EXPECT_EQ(quantize_phase(1.234), std::round(1.234 / step) * step);
  for (int i = 0; i <= 4096; ++i) {
    const double q = quantize_phase(i * (2.0 * M_PI / 4096.0));
    EXPECT_GE(q, 0.0);
    EXPECT_LT(q, 2.0 * M_PI);
  }
}

TEST(Reader, PhaseInPrincipalRange) {
  Scene scene = make_scene();
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(3));
  for (const auto& r : reader.run(scene, 0.0, 2.0)) {
    EXPECT_GE(r.phase_rad, 0.0);
    EXPECT_LT(r.phase_rad, 2.0 * M_PI);
  }
}

TEST(Reader, TdmAntennaSchedule) {
  Scene scene = make_scene();
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(4));
  // Antenna port rotates every 25 ms.
  EXPECT_EQ(reader.antenna_at(0.010), 0);
  EXPECT_EQ(reader.antenna_at(0.030), 1);
  EXPECT_EQ(reader.antenna_at(0.060), 2);
  EXPECT_EQ(reader.antenna_at(0.080), 3);
  EXPECT_EQ(reader.antenna_at(0.101), 0);
  for (const auto& r : reader.run(scene, 0.0, 2.0)) {
    EXPECT_EQ(r.antenna, reader.antenna_at(r.time_sec));
  }
}

TEST(Reader, HoppingDwellIs400ms) {
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(5));
  const int ch = reader.channel_at(0.01);
  EXPECT_EQ(reader.channel_at(0.39), ch);
  std::set<int> seen;
  for (int hop = 0; hop < 50; ++hop) {
    seen.insert(reader.channel_at(hop * 0.4 + 0.2));
  }
  EXPECT_EQ(seen.size(), 50u);  // full FCC plan visited in 20 s
}

TEST(Reader, HoppingDisabledPinsCommonChannel) {
  ReaderConfig config;
  config.hopping = false;
  Reader reader(config, 4, 3, util::Rng(6));
  for (double t = 0.0; t < 5.0; t += 0.4) {
    EXPECT_EQ(reader.channel_at(t), rf::common_channel());
  }
}

TEST(Reader, PhaseQuantizedTo12Bits) {
  Scene scene = make_scene();
  ReaderConfig config;
  Reader reader(config, 4, 3, util::Rng(7));
  const double step = 2.0 * M_PI / 4096.0;
  for (const auto& r : reader.run(scene, 0.0, 1.0)) {
    const double ratio = r.phase_rad / step;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-6);
  }
}

TEST(Reader, RssiQuantizedToHalfDb) {
  Scene scene = make_scene();
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(8));
  for (const auto& r : reader.run(scene, 0.0, 1.0)) {
    const double ratio = r.rssi_dbm * 2.0;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-6);
  }
}

TEST(Reader, HardwareOffsetLinearInFrequency) {
  // Disable the per-channel half-cycle reporting state so the underlying
  // linear response (Fig. 3) is visible directly.
  ReaderConfig config;
  config.pi_ambiguity = false;
  Reader reader(config, 4, 3, util::Rng(9));
  // Offsets, unwrapped over channels, should follow a near-linear trend:
  // check that second differences are small (ripple-scale, not slope-scale).
  std::vector<double> offs;
  for (int ch = 0; ch < rf::kNumChannels; ++ch) {
    offs.push_back(reader.hardware_offset(1, 0, ch));
  }
  const std::vector<double> un = dsp::unwrap(offs);
  for (std::size_t i = 2; i < un.size(); ++i) {
    const double second_diff = un[i] - 2.0 * un[i - 1] + un[i - 2];
    EXPECT_LT(std::abs(second_diff), 0.8);
  }
}

TEST(Reader, OffsetSharedAcrossAntennasUpToMismatch) {
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(10));
  for (int ch = 0; ch < rf::kNumChannels; ch += 7) {
    const double base = reader.hardware_offset(1, 0, ch);
    for (int ant = 1; ant < 4; ++ant) {
      const double diff =
          dsp::circular_distance(base, reader.hardware_offset(1, ant, ch));
      // Port mismatch + ripple, modulo the per-port half-cycle state.
      const double mod_pi = std::min(diff, M_PI - diff);
      EXPECT_LT(mod_pi, 0.5);
    }
  }
}

TEST(Reader, DistantTagsDropReads) {
  // At 4 m the tag responds consistently; far beyond the energy budget the
  // read count collapses.
  Scene near_scene = make_scene(1, 1, 3.0, 21);
  Scene far_scene = make_scene(1, 1, 9.5, 21);
  ReaderConfig config;
  config.sensitivity_dbm = -62.0;  // tighter budget to exercise dropout
  Reader near_reader(config, 4, 1, util::Rng(22));
  Reader far_reader(config, 4, 1, util::Rng(22));
  const auto near_reports = near_reader.run(near_scene, 0.0, 4.0);
  const auto far_reports = far_reader.run(far_scene, 0.0, 4.0);
  EXPECT_GT(near_reports.size(), far_reports.size());
}

TEST(Reader, DeterministicForSeed) {
  Scene scene1 = make_scene(2, 3, 4.0, 33);
  Scene scene2 = make_scene(2, 3, 4.0, 33);
  Reader r1(ReaderConfig{}, 4, 6, util::Rng(12));
  Reader r2(ReaderConfig{}, 4, 6, util::Rng(12));
  const auto a = r1.run(scene1, 0.0, 1.0);
  const auto b = r2.run(scene2, 0.0, 1.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].phase_rad, b[i].phase_rad);
    EXPECT_DOUBLE_EQ(a[i].rssi_dbm, b[i].rssi_dbm);
    EXPECT_EQ(a[i].tag_id, b[i].tag_id);
  }
}

TEST(Reader, DopplerTracksRadialMotion) {
  // A person pacing toward/away from the array produces Doppler magnitudes
  // around 2*v/lambda; a stationary scene stays near zero.
  Environment env = Environment::open_space();
  ArrayGeometry array;
  array.center = Vec3{0.0, 0.4, 1.25};
  BodyParams body;
  MotionSpec pace;
  pace.gait = GaitType::kWalkLine;
  pace.gait_freq_hz = 0.25;
  pace.gait_amplitude_m = 1.0;
  // Heading -y: straight toward the array -> motion is purely radial.
  Person pacer(body, {0.0, 4.0}, -M_PI / 2.0, pace);
  Scene moving(env, {pacer}, array, 1);

  MotionSpec still;
  still.gait_amplitude_m = 0.0;
  Person stander(body, {0.0, 4.0}, -M_PI / 2.0, still);
  Scene frozen(env, {stander}, array, 1);
  frozen.set_motion_frozen(true);

  ReaderConfig config;
  Reader r1(config, 4, 1, util::Rng(55));
  Reader r2(config, 4, 1, util::Rng(55));
  double max_moving = 0.0, max_frozen = 0.0;
  for (const auto& r : r1.run(moving, 0.0, 4.0)) {
    max_moving = std::max(max_moving, std::abs(r.doppler_hz));
  }
  for (const auto& r : r2.run(frozen, 0.0, 4.0)) {
    max_frozen = std::max(max_frozen, std::abs(r.doppler_hz));
  }
  // Peak walking speed 2*pi*f*A ~ 1.6 m/s -> |f_d| up to ~2*v/lambda ~ 10 Hz.
  EXPECT_GT(max_moving, 2.0);
  EXPECT_LT(max_moving, 25.0);
  EXPECT_LT(max_frozen, 0.5);
}

TEST(Reader, DopplerQuantizedToSixteenthHz) {
  Scene scene = make_scene();
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(56));
  for (const auto& r : reader.run(scene, 0.0, 1.0)) {
    const double ratio = r.doppler_hz * 16.0;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-6);
  }
}

TEST(Reader, AllTagsReported) {
  Scene scene = make_scene(2, 3);
  Reader reader(ReaderConfig{}, 4, 6, util::Rng(13));
  std::set<std::uint32_t> seen;
  for (const auto& r : reader.run(scene, 0.0, 2.0)) seen.insert(r.tag_id);
  EXPECT_EQ(seen.size(), 6u);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_reports(const std::vector<TagReport>& a, const std::vector<TagReport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(bits(a[i].time_sec), bits(b[i].time_sec)) << i;
    ASSERT_EQ(a[i].tag_id, b[i].tag_id) << i;
    ASSERT_EQ(a[i].antenna, b[i].antenna) << i;
    ASSERT_EQ(a[i].channel, b[i].channel) << i;
    ASSERT_EQ(bits(a[i].phase_rad), bits(b[i].phase_rad)) << i;
    ASSERT_EQ(bits(a[i].rssi_dbm), bits(b[i].rssi_dbm)) << i;
    ASSERT_EQ(bits(a[i].doppler_hz), bits(b[i].doppler_hz)) << i;
  }
}

TEST(Reader, SameSeedSameReportsFrozenThenMoving) {
  // The calibration bootstrap's order: a frozen run, then a moving one on
  // the same reader. Nothing memoized for the frozen run may leak into the
  // next call.
  for (const bool doppler : {false, true}) {
    Scene scene1 = make_scene(2, 3, 4.0, 41);
    Scene scene2 = make_scene(2, 3, 4.0, 41);
    ReaderConfig config;
    config.report_doppler = doppler;
    Reader r1(config, 4, 6, util::Rng(42));
    Reader r2(config, 4, 6, util::Rng(42));
    scene1.set_motion_frozen(true);
    scene2.set_motion_frozen(true);
    expect_same_reports(r1.run(scene1, 0.0, 20.0), r2.run(scene2, 0.0, 20.0));
    scene1.set_motion_frozen(false);
    scene2.set_motion_frozen(false);
    expect_same_reports(r1.run(scene1, 20.2, 23.4), r2.run(scene2, 20.2, 23.4));
  }
}

TEST(Reader, ReportsMatchPathsAtReferenceBitwise) {
  // Noise-free, unquantized, no dropout: every report is a deterministic
  // function of paths_at, so each field can be derived again here from the
  // vector path and compared bit for bit. One reader runs a frozen scene, the
  // same scene moving, then a second frozen scene, so a channel memoized in
  // one call would show up wrong in a later one. The runs cross the 20 s
  // hop-cycle boundary.
  ReaderConfig config;
  config.quantize = false;
  config.phase_noise_std_rad = 0.0;
  config.rssi_noise_std_db = 0.0;
  config.sensitivity_dbm = -1000.0;
  config.report_doppler = true;
  const double dt = 2e-3;  // the reader's Doppler read burst
  Scene first = make_scene(2, 3, 4.0, 51);
  Scene second = make_scene(2, 3, 3.0, 53);
  Reader reader(config, 4, 6, util::Rng(52));
  struct Leg {
    Scene* scene;
    bool frozen;
    double t0, t1;
  };
  for (const Leg& leg : {Leg{&first, true, 0.0, 20.8}, Leg{&first, false, 20.8, 22.0},
                         Leg{&second, true, 22.0, 23.2}}) {
    Scene& scene = *leg.scene;
    scene.set_motion_frozen(leg.frozen);
    const auto reports = reader.run(scene, leg.t0, leg.t1);
    // Two reads per tag per 25 ms slot, none dropped.
    EXPECT_EQ(reports.size(),
              static_cast<std::size_t>(std::llround((leg.t1 - leg.t0) / 0.025)) * 6 * 2);
    for (const TagReport& r : reports) {
      ASSERT_EQ(r.channel, reader.channel_at(r.time_sec));
      ASSERT_EQ(r.antenna, reader.antenna_at(r.time_sec));
      const std::size_t tag = r.tag_id - 1;
      const double lambda = rf::channel_wavelength_m(r.channel);
      const auto h = scene.propagation().channel(scene.paths_at(tag, r.antenna, r.time_sec),
                                                 lambda);
      double phase = std::arg(h);
      phase += reader.hardware_offset(r.tag_id, r.antenna, r.channel);
      phase += 0.0;  // normal(0, 0)
      phase = dsp::wrap_2pi(phase);
      ASSERT_EQ(bits(r.phase_rad), bits(dsp::wrap_2pi(phase))) << r.time_sec;
      const double power = config.rssi_reference_dbm + 20.0 * std::log10(std::abs(h));
      ASSERT_EQ(bits(r.rssi_dbm), bits(power + 0.0)) << r.time_sec;
      const double phi0 = std::arg(scene.propagation().channel(
          scene.paths_at(tag, r.antenna, r.time_sec - dt / 2), lambda));
      const double phi1 = std::arg(scene.propagation().channel(
          scene.paths_at(tag, r.antenna, r.time_sec + dt / 2), lambda));
      ASSERT_EQ(bits(r.doppler_hz), bits(dsp::wrap_pi(phi1 - phi0) / dt / (2.0 * M_PI)))
          << r.time_sec;
    }
  }
}

TEST(Reader, AntennaAtNegativeTimeFloorsToAValidPort) {
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(60));
  // Slot -1 is [-25 ms, 0): port 3, continuing the 0, 1, 2, 3 rotation.
  EXPECT_EQ(reader.antenna_at(-0.010), 3);
  EXPECT_EQ(reader.antenna_at(-0.030), 2);
  EXPECT_EQ(reader.antenna_at(-0.110), 3);
  for (double t = -7.0; t < 0.0; t += 0.0123) {
    const int ant = reader.antenna_at(t);
    ASSERT_GE(ant, 0);
    ASSERT_LT(ant, 4);
    EXPECT_EQ(ant, reader.antenna_at(t + 0.1));  // 4 slots later, same port
    EXPECT_NO_THROW(reader.hardware_offset(1, ant, reader.channel_at(t)));
  }
  for (const double t : {-1e300, -1e18, 1e18, 1e300}) {
    const int ant = reader.antenna_at(t);
    EXPECT_GE(ant, 0);
    EXPECT_LT(ant, 4);
  }
}

TEST(Reader, RunRejectsNegativeOrNonFiniteTimes) {
  Scene scene = make_scene();
  Reader reader(ReaderConfig{}, 4, 3, util::Rng(61));
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(reader.run(scene, -0.1, 1.0), std::invalid_argument);
  EXPECT_THROW(reader.run(scene, nan, 1.0), std::invalid_argument);
  EXPECT_THROW(reader.run(scene, inf, inf), std::invalid_argument);
  EXPECT_THROW(reader.run(scene, -inf, 1.0), std::invalid_argument);
  EXPECT_THROW(reader.run(scene, 0.0, inf), std::invalid_argument);
  EXPECT_THROW(reader.run(scene, 0.0, nan), std::invalid_argument);
  EXPECT_TRUE(reader.run(scene, 1.0, 1.0).empty());
}

}  // namespace
}  // namespace m2ai::sim
