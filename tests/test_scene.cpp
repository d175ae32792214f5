#include "sim/scene.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "rf/channel_plan.hpp"
#include "sim/activities.hpp"

namespace m2ai::sim {
namespace {

Scene make_scene(int persons, int tags) {
  Environment env = Environment::laboratory();
  ArrayGeometry array;
  array.center = Vec3{env.width / 2.0, 0.4, 1.25};
  util::Rng rng(5);
  auto people = instantiate_activity(2, persons, env, array.origin2d(), {}, rng);
  return Scene(env, std::move(people), array, tags);
}

TEST(ArrayGeometry, AntennaPositionsCenteredAlongAxis) {
  ArrayGeometry array;
  array.center = Vec3{5.0, 1.0, 1.25};
  array.num_antennas = 4;
  array.separation_m = 0.04;
  const Vec3 a0 = array.antenna_position(0);
  const Vec3 a3 = array.antenna_position(3);
  EXPECT_NEAR(a0.x, 5.0 - 0.06, 1e-12);
  EXPECT_NEAR(a3.x, 5.0 + 0.06, 1e-12);
  EXPECT_DOUBLE_EQ(a0.y, 1.0);
  EXPECT_DOUBLE_EQ(a0.z, 1.25);
  // Uniform spacing.
  for (int n = 1; n < 4; ++n) {
    EXPECT_NEAR(array.antenna_position(n).x - array.antenna_position(n - 1).x, 0.04,
                1e-12);
  }
}

TEST(Scene, TagCountAndAssignment) {
  Scene scene = make_scene(2, 3);
  ASSERT_EQ(scene.tags().size(), 6u);
  EXPECT_EQ(scene.tags()[0].id, 1u);
  EXPECT_EQ(scene.tags()[5].id, 6u);
  EXPECT_EQ(scene.tags()[0].person_index, 0);
  EXPECT_EQ(scene.tags()[3].person_index, 1);
  EXPECT_EQ(scene.tags()[0].site, BodySite::kHand);
  EXPECT_EQ(scene.tags()[2].site, BodySite::kShoulder);
}

TEST(Scene, SingleTagPerPersonIsHand) {
  Scene scene = make_scene(2, 1);
  ASSERT_EQ(scene.tags().size(), 2u);
  EXPECT_EQ(scene.tags()[0].site, BodySite::kHand);
  EXPECT_EQ(scene.tags()[1].site, BodySite::kHand);
}

TEST(Scene, RejectsBadTagCount) {
  Environment env = Environment::laboratory();
  util::Rng rng(6);
  auto people = instantiate_activity(1, 1, env, {6.9, 0.4}, {}, rng);
  EXPECT_THROW(Scene(env, people, ArrayGeometry{}, 0), std::out_of_range);
  EXPECT_THROW(Scene(env, people, ArrayGeometry{}, 4), std::out_of_range);
}

TEST(Scene, FrozenMotionPinsPositions) {
  Scene scene = make_scene(2, 3);
  scene.set_motion_frozen(true);
  const Vec3 a = scene.tag_position(0, 0.0);
  const Vec3 b = scene.tag_position(0, 5.0);
  EXPECT_DOUBLE_EQ(a.x, b.x);
  EXPECT_DOUBLE_EQ(a.z, b.z);
  scene.set_motion_frozen(false);
  const Vec3 c = scene.tag_position(0, 5.0);
  EXPECT_NE(a.x, c.x);  // person 0 in A_02 paces
}

TEST(Scene, BodiesMatchPersons) {
  Scene scene = make_scene(3, 2);
  const auto bodies = scene.bodies_at(1.0);
  ASSERT_EQ(bodies.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bodies[i].person_index, static_cast<int>(i));
    EXPECT_GT(bodies[i].radius, 0.1);
  }
}

TEST(Scene, PathsExistForEveryTagAntennaPair) {
  Scene scene = make_scene(2, 3);
  for (std::size_t tag = 0; tag < scene.tags().size(); ++tag) {
    for (int ant = 0; ant < 4; ++ant) {
      EXPECT_FALSE(scene.paths_at(tag, ant, 0.5).empty());
    }
  }
}

TEST(Scene, TagGainModulatesPathGains) {
  // Same geometry, but a person turned away yields weaker paths.
  Environment env = Environment::open_space();
  ArrayGeometry array;
  array.center = Vec3{0.0, 0.0, 1.25};
  BodyParams body;
  MotionSpec still;
  Person facing(body, {0.0, 4.0}, -M_PI / 2.0, still);  // faces the array
  Person away(body, {0.0, 4.0}, M_PI / 2.0, still);     // faces away
  Scene scene_facing(env, {facing}, array, 1);
  Scene scene_away(env, {away}, array, 1);
  const auto p_facing = scene_facing.paths_at(0, 0, 0.0);
  const auto p_away = scene_away.paths_at(0, 0, 0.0);
  ASSERT_FALSE(p_facing.empty());
  ASSERT_FALSE(p_away.empty());
  EXPECT_GT(p_facing[0].gain, p_away[0].gain * 1.5);
}

// Scene::channel_at against the vector path at the same instant: the same
// bits, and nullopt exactly where paths_at is empty.
void expect_channel_matches_paths(const Scene& scene, std::size_t tag, int ant,
                                  double t, int channel,
                                  std::vector<BodyDisk>& scratch) {
  const double lambda = rf::channel_wavelength_m(channel);
  const auto paths = scene.paths_at(tag, ant, t);
  const auto h = scene.channel_at(tag, ant, t, lambda, scratch);
  ASSERT_EQ(h.has_value(), !paths.empty()) << "tag " << tag << " t " << t;
  if (!h) return;
  const std::complex<double> ref = scene.propagation().channel(paths, lambda);
  ASSERT_EQ(std::bit_cast<std::uint64_t>(h->real()), std::bit_cast<std::uint64_t>(ref.real()))
      << "tag " << tag << " antenna " << ant << " t " << t << " channel " << channel;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(h->imag()), std::bit_cast<std::uint64_t>(ref.imag()))
      << "tag " << tag << " antenna " << ant << " t " << t << " channel " << channel;
}

TEST(Scene, ChannelAtMatchesPathsAtBitwise) {
  // Both environments, frozen and moving, every activity: 2 x 2 x 12 x 30
  // random (tag, antenna, t, channel) draws. Times reach past the bootstrap
  // and include t +- 1 ms pairs, the instants the reader's Doppler branch
  // evaluates.
  util::Rng draw(77);
  std::vector<BodyDisk> scratch;
  int compared = 0;
  for (const Environment& env : {Environment::laboratory(), Environment::hall()}) {
    for (int activity = 1; activity <= 12; ++activity) {
      ArrayGeometry array;
      array.center = Vec3{env.width / 2.0, 0.4, 1.25};
      util::Rng rng(static_cast<std::uint64_t>(100 + activity));
      auto people = instantiate_activity(activity, 1 + activity % 3, env,
                                         array.origin2d(), {}, rng);
      Scene scene(env, std::move(people), array, 3);
      for (const bool frozen : {true, false}) {
        scene.set_motion_frozen(frozen);
        for (int i = 0; i < 30; ++i) {
          const auto tag = static_cast<std::size_t>(draw.uniform_int(
              static_cast<std::uint64_t>(scene.tags().size())));
          const int ant = static_cast<int>(draw.uniform_int(std::uint64_t{4}));
          const int channel = static_cast<int>(
              draw.uniform_int(static_cast<std::uint64_t>(rf::kNumChannels)));
          const double t = draw.uniform(0.0, 30.0);
          expect_channel_matches_paths(scene, tag, ant, t, channel, scratch);
          expect_channel_matches_paths(scene, tag, ant, t - 1e-3, channel, scratch);
          expect_channel_matches_paths(scene, tag, ant, t + 1e-3, channel, scratch);
          compared += 3;
        }
      }
    }
  }
  EXPECT_GE(compared, 1000);
}

TEST(Scene, ChannelAtIsNulloptWhenEveryRayFallsUnderTheFloor) {
  Environment env = Environment::laboratory();
  ArrayGeometry array;
  array.center = Vec3{env.width / 2.0, 0.4, 1.25};
  util::Rng rng(8);
  auto people = instantiate_activity(3, 2, env, array.origin2d(), {}, rng);
  PropagationOptions floor_above_all;
  floor_above_all.min_relative_gain = 10.0;
  Scene scene(env, std::move(people), array, 3, floor_above_all);
  std::vector<BodyDisk> scratch;
  for (std::size_t tag = 0; tag < scene.tags().size(); ++tag) {
    for (int ant = 0; ant < 4; ++ant) {
      EXPECT_TRUE(scene.paths_at(tag, ant, 1.5).empty());
      EXPECT_FALSE(scene.channel_at(tag, ant, 1.5, 0.33, scratch).has_value());
    }
  }
}

}  // namespace
}  // namespace m2ai::sim
