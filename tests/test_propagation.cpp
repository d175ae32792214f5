#include "sim/propagation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "rf/channel_plan.hpp"
#include "util/rng.hpp"

namespace m2ai::sim {
namespace {

PropagationOptions no_extras() {
  PropagationOptions opts;
  opts.enable_wall_reflections = false;
  opts.enable_scatterers = false;
  return opts;
}

TEST(Propagation, DirectPathLengthIs3D) {
  PropagationModel model(Environment::open_space(), no_extras());
  const Vec3 tag{3.0, 4.0, 2.25};
  const Vec3 ant{0.0, 0.0, 1.25};
  const auto paths = model.paths(tag, ant, {}, -1, {0.0, 0.0}, {1.0, 0.0});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].kind, PathKind::kDirect);
  EXPECT_NEAR(paths[0].length_m, std::sqrt(3.0 * 3.0 + 4.0 * 4.0 + 1.0), 1e-9);
}

TEST(Propagation, DirectPathAoAMatchesBearing) {
  PropagationModel model(Environment::open_space(), no_extras());
  const Vec3 tag{4.0, 4.0, 1.25};
  const Vec3 ant{0.0, 0.0, 1.25};
  const auto paths = model.paths(tag, ant, {}, -1, {0.0, 0.0}, {1.0, 0.0});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_NEAR(paths[0].aoa_deg, 45.0, 1e-9);
}

TEST(Propagation, GainFallsWithDistance) {
  PropagationModel model(Environment::open_space(), no_extras());
  const Vec3 ant{0.0, 0.0, 1.25};
  const auto near = model.paths({0.0, 2.0, 1.25}, ant, {}, -1, {0, 0}, {1, 0});
  const auto far = model.paths({0.0, 8.0, 1.25}, ant, {}, -1, {0, 0}, {1, 0});
  EXPECT_GT(near[0].gain, far[0].gain * 3.0);
}

TEST(Propagation, BodyOcclusionAttenuates) {
  PropagationOptions opts = no_extras();
  opts.body_loss_db = 10.0;
  PropagationModel model(Environment::open_space(), opts);
  const Vec3 tag{0.0, 6.0, 1.25};
  const Vec3 ant{0.0, 0.0, 1.25};
  const std::vector<BodyDisk> blocker{{{0.0, 3.0}, 0.25, 0}};
  const auto clear = model.paths(tag, ant, {}, -1, {0, 0}, {1, 0});
  const auto blocked = model.paths(tag, ant, blocker, -1, {0, 0}, {1, 0});
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0].blocked_by, 1);
  EXPECT_NEAR(blocked[0].gain / clear[0].gain, std::pow(10.0, -0.5), 1e-9);
}

TEST(Propagation, WearerDoesNotBlockOwnTag) {
  PropagationOptions opts = no_extras();
  PropagationModel model(Environment::open_space(), opts);
  // Tag on the wearer's body surface; the wearer disk covers the tag.
  const Vec3 tag{0.0, 3.0, 1.25};
  const Vec3 ant{0.0, 0.0, 1.25};
  const std::vector<BodyDisk> wearer{{{0.0, 3.1}, 0.25, 7}};
  const auto paths = model.paths(tag, ant, wearer, /*owner=*/7, {0, 0}, {1, 0});
  EXPECT_EQ(paths[0].blocked_by, 0);
}

TEST(Propagation, OtherPersonStillBlocks) {
  PropagationOptions opts = no_extras();
  PropagationModel model(Environment::open_space(), opts);
  const Vec3 tag{0.0, 6.0, 1.25};
  const Vec3 ant{0.0, 0.0, 1.25};
  const std::vector<BodyDisk> bodies{{{0.0, 6.1}, 0.25, 7},   // wearer near tag
                                     {{0.0, 3.0}, 0.25, 8}};  // other person mid-path
  const auto paths = model.paths(tag, ant, bodies, /*owner=*/7, {0, 0}, {1, 0});
  EXPECT_EQ(paths[0].blocked_by, 1);
}

TEST(Propagation, WallReflectionAddsPath) {
  Environment env = Environment::open_space(10.0, 10.0);
  env.walls.push_back(rf::Wall{true, 0.0, 0.0, 10.0, 6.0});  // x = 0 wall
  PropagationOptions opts;
  opts.enable_scatterers = false;
  PropagationModel model(env, opts);
  const Vec3 tag{2.0, 5.0, 1.25};
  const Vec3 ant{2.0, 1.0, 1.25};
  const auto paths = model.paths(tag, ant, {}, -1, {2.0, 1.0}, {1.0, 0.0});
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[1].kind, PathKind::kWallReflection);
  // Image method: reflected ground length equals antenna -> mirrored tag.
  const double expect_ground = std::hypot(2.0 + 2.0, 5.0 - 1.0);
  EXPECT_NEAR(paths[1].length_m, expect_ground, 1e-9);
  // Reflection is weaker than direct (longer + loss).
  EXPECT_LT(paths[1].gain, paths[0].gain);
}

TEST(Propagation, ScattererAddsDeflectedPath) {
  Environment env = Environment::open_space();
  env.scatterers.push_back(Scatterer{{1.0, 2.0}, 0.3, 6.0});
  PropagationOptions opts;
  opts.enable_wall_reflections = false;
  PropagationModel model(env, opts);
  const Vec3 tag{3.0, 4.0, 1.25};
  const Vec3 ant{0.0, 0.0, 1.25};
  const auto paths = model.paths(tag, ant, {}, -1, {0, 0}, {1, 0});
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[1].kind, PathKind::kScatterer);
  const double via = rf::distance({3.0, 4.0}, {1.0, 2.0}) + rf::distance({1.0, 2.0}, {0.0, 0.0});
  EXPECT_NEAR(paths[1].length_m, via, 1e-9);
  // The deflected path arrives from the scatterer's direction.
  EXPECT_NEAR(paths[1].aoa_deg, rf::bearing_deg({0, 0}, {1, 0}, {1.0, 2.0}), 1e-9);
}

TEST(Propagation, LaboratoryProducesManyPaths) {
  PropagationModel model(Environment::laboratory());
  const Vec3 tag{7.0, 5.0, 1.25};
  const Vec3 ant{6.875, 0.4, 1.25};
  const auto paths = model.paths(tag, ant, {}, -1, {6.875, 0.4}, {1, 0});
  EXPECT_GT(paths.size(), 5u);  // direct + reflections + scatterers
}

TEST(Propagation, ChannelPhaseIsRoundTrip) {
  PropagationModel model(Environment::open_space(), no_extras());
  std::vector<PathContribution> single(1);
  single[0].length_m = 1.0;
  single[0].gain = 1.0;
  const double lambda = 0.4;
  const std::complex<double> h = model.channel(single, lambda);
  // Round-trip 2 m over lambda 0.4 m -> phase = -2*pi*5 = 0 (mod 2*pi).
  EXPECT_NEAR(std::arg(h), 0.0, 1e-9);
  EXPECT_NEAR(std::abs(h), 1.0, 1e-12);
}

TEST(Propagation, ChannelSumsCoherently) {
  PropagationModel model(Environment::open_space(), no_extras());
  std::vector<PathContribution> two(2);
  two[0].length_m = 1.0;
  two[0].gain = 1.0;
  two[1].length_m = 1.0 + 0.4 / 4.0;  // quarter wavelength longer one-way
  two[1].gain = 1.0;
  // Round trip: half wavelength difference -> destructive.
  const std::complex<double> h = model.channel(two, 0.4);
  EXPECT_NEAR(std::abs(h), 0.0, 1e-9);
}

TEST(Propagation, WeakPathsDropped) {
  PropagationOptions opts;
  opts.min_relative_gain = 0.5;  // aggressive floor
  opts.enable_wall_reflections = false;
  opts.enable_scatterers = false;
  PropagationModel model(Environment::open_space(), opts);
  const auto paths =
      model.paths({0.0, 10.0, 1.25}, {0.0, 0.0, 1.25}, {}, -1, {0, 0}, {1, 0});
  EXPECT_TRUE(paths.empty());  // 1/10 gain < 0.5 floor
}

// channel_sum against the vector path: paths() with every gain scaled by the
// tag gain, summed by channel(). Equal means the same bits, not close.
void expect_sum_matches_paths(const PropagationModel& model, const Vec3& tag,
                              const Vec3& ant, const std::vector<BodyDisk>& bodies,
                              int owner, double tag_gain, double lambda) {
  std::vector<PathContribution> paths =
      model.paths(tag, ant, bodies, owner, {0.0, 0.0}, {1.0, 0.0});
  for (PathContribution& p : paths) p.gain *= tag_gain;
  const auto sum = model.channel_sum(tag, ant, bodies, owner, tag_gain, lambda);
  ASSERT_EQ(sum.has_value(), !paths.empty());
  if (!sum) return;
  const std::complex<double> h = model.channel(paths, lambda);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum->real()),
            std::bit_cast<std::uint64_t>(h.real()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum->imag()),
            std::bit_cast<std::uint64_t>(h.imag()));
}

TEST(Propagation, ChannelSumMatchesPathsBitwise) {
  util::Rng rng(2024);
  for (const Environment& env : {Environment::laboratory(), Environment::hall()}) {
    PropagationModel model(env);
    for (int draw = 0; draw < 1200; ++draw) {
      const Vec3 tag{rng.uniform(0.2, env.width - 0.2), rng.uniform(0.5, env.depth - 0.2),
                     rng.uniform(0.3, 2.2)};
      const Vec3 ant{rng.uniform(0.0, env.width), rng.uniform(0.1, 0.6), 1.25};
      std::vector<BodyDisk> bodies;
      const int persons = static_cast<int>(rng.uniform_int(std::uint64_t{4}));
      for (int p = 0; p < persons; ++p) {
        bodies.push_back(BodyDisk{{rng.uniform(0.0, env.width), rng.uniform(0.0, env.depth)},
                                  rng.uniform(0.16, 0.26), p});
      }
      const int owner = persons > 0 ? static_cast<int>(rng.uniform_int(
                                          static_cast<std::uint64_t>(persons)))
                                    : -1;
      const double lambda = rf::channel_wavelength_m(
          static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(rf::kNumChannels))));
      expect_sum_matches_paths(model, tag, ant, bodies, owner, rng.uniform(0.05, 1.0),
                               lambda);
    }
  }
}

TEST(Propagation, ChannelSumIsNulloptWhenEveryRayFallsUnderTheFloor) {
  PropagationOptions opts;
  opts.min_relative_gain = 10.0;  // no ray can clear it
  PropagationModel model(Environment::laboratory(), opts);
  const Vec3 tag{6.0, 4.0, 1.2};
  const Vec3 ant{6.9, 0.4, 1.25};
  EXPECT_TRUE(model.paths(tag, ant, {}, -1, {0, 0}, {1, 0}).empty());
  EXPECT_FALSE(model.channel_sum(tag, ant, {}, -1, 1.0, 0.33).has_value());
}

TEST(Propagation, BodyLossIsTheSameFromTableAndBeyondIt) {
  // Up to 24 bodies stacked across the direct ray: blocker counts inside and
  // beyond the precomputed body-loss table give friis * 10^(-loss*b/20).
  PropagationOptions opts = no_extras();
  opts.body_loss_db = 0.5;
  opts.min_relative_gain = 0.0;
  PropagationModel model(Environment::open_space(), opts);
  const Vec3 tag{0.0, 6.0, 1.25};
  const Vec3 ant{0.0, 0.0, 1.25};
  for (int b = 0; b <= 24; ++b) {
    std::vector<BodyDisk> bodies;
    for (int i = 0; i < b; ++i) bodies.push_back(BodyDisk{{0.0, 1.0 + 0.2 * i}, 0.05, i});
    const auto paths = model.paths(tag, ant, bodies, -1, {0, 0}, {1, 0});
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].blocked_by, b);
    EXPECT_EQ(paths[0].gain, (1.0 / 6.0) * 1.0 * std::pow(10.0, -(0.5 * b) / 20.0));
    expect_sum_matches_paths(model, tag, ant, bodies, -1, 0.7, 0.33);
  }
}

}  // namespace
}  // namespace m2ai::sim
