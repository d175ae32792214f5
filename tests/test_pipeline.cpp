#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "dsp/calibration.hpp"
#include "sim/reader.hpp"
#include "sim/scene.hpp"

namespace m2ai::core {
namespace {

PipelineConfig quick_config() {
  PipelineConfig config;
  config.windows_per_sample = 4;
  config.bootstrap_sec = 4.0;  // short bootstrap keeps the test fast
  return config;
}

TEST(Pipeline, SampleHasExpectedShape) {
  Pipeline pipeline(quick_config(), 1);
  const Sample s = pipeline.simulate_sample(3);
  EXPECT_EQ(s.activity_id, 3);
  EXPECT_EQ(s.label, 2);
  ASSERT_EQ(s.frames.size(), 4u);
  EXPECT_EQ(s.frames[0].pseudo.dim(0), 6);  // 2 persons x 3 tags
  EXPECT_EQ(s.frames[0].pseudo.dim(1), 180);
  EXPECT_EQ(s.frames[0].aux.dim(1), 4);
}

TEST(Pipeline, FramesCarrySignal) {
  Pipeline pipeline(quick_config(), 2);
  const Sample s = pipeline.simulate_sample(1);
  float total = 0.0f;
  for (const auto& f : s.frames) total += f.pseudo.flattened().l2_norm();
  EXPECT_GT(total, 1.0f);
}

TEST(Pipeline, DeterministicForSeed) {
  Pipeline a(quick_config(), 7);
  Pipeline b(quick_config(), 7);
  const Sample sa = a.simulate_sample(5);
  const Sample sb = b.simulate_sample(5);
  ASSERT_EQ(sa.frames.size(), sb.frames.size());
  for (std::size_t t = 0; t < sa.frames.size(); ++t) {
    for (std::size_t i = 0; i < sa.frames[t].pseudo.size(); ++i) {
      EXPECT_EQ(sa.frames[t].pseudo[i], sb.frames[t].pseudo[i]);
    }
  }
}

TEST(Pipeline, DifferentSeedsVary) {
  Pipeline a(quick_config(), 7);
  Pipeline b(quick_config(), 8);
  const Sample sa = a.simulate_sample(5);
  const Sample sb = b.simulate_sample(5);
  float diff = 0.0f;
  for (std::size_t i = 0; i < sa.frames[0].pseudo.size(); ++i) {
    diff += std::abs(sa.frames[0].pseudo[i] - sb.frames[0].pseudo[i]);
  }
  EXPECT_GT(diff, 0.1f);
}

TEST(Pipeline, CalibratorBuiltWhenEnabled) {
  Pipeline pipeline(quick_config(), 3);
  pipeline.simulate_sample(1);
  ASSERT_NE(pipeline.last_calibrator(), nullptr);
  EXPECT_NE(pipeline.last_calibrator()->table(1, 0), nullptr);
}

TEST(Pipeline, NoCalibratorWhenDisabled) {
  PipelineConfig config = quick_config();
  config.phase_calibration = false;
  Pipeline pipeline(config, 3);
  pipeline.simulate_sample(1);
  EXPECT_EQ(pipeline.last_calibrator(), nullptr);
}

TEST(Pipeline, NumTagsFollowsConfig) {
  PipelineConfig config = quick_config();
  config.num_persons = 3;
  config.tags_per_person = 2;
  Pipeline pipeline(config, 4);
  EXPECT_EQ(pipeline.num_tags(), 6);
  const Sample s = pipeline.simulate_sample(2);
  EXPECT_EQ(s.frames[0].pseudo.dim(0), 6);
}

TEST(Pipeline, AntennaCountPropagates) {
  PipelineConfig config = quick_config();
  config.num_antennas = 2;
  Pipeline pipeline(config, 5);
  const Sample s = pipeline.simulate_sample(1);
  EXPECT_EQ(s.frames[0].aux.dim(1), 2);
}

TEST(Pipeline, HallEnvironmentWorks) {
  PipelineConfig config = quick_config();
  config.environment = EnvironmentKind::kHall;
  Pipeline pipeline(config, 6);
  const Sample s = pipeline.simulate_sample(4);
  EXPECT_EQ(s.frames.size(), 4u);
}

TEST(Pipeline, ReportsExposedForInspection) {
  Pipeline pipeline(quick_config(), 9);
  pipeline.simulate_sample(1);
  EXPECT_FALSE(pipeline.last_reports().empty());
}

// The frozen calibration bootstrap as Pipeline::run_sample runs it (default
// config: 20 s, 2 persons x 3 tags, 4 antennas), returning its reports in
// the reader's time-sorted order.
std::vector<sim::TagReport> bootstrap_reports(int activity_id, std::uint64_t seed,
                                              std::vector<std::uint32_t>* tag_ids) {
  const PipelineConfig config;
  util::Rng rng(seed);
  const sim::Environment env = make_environment(config.environment);
  sim::ArrayGeometry array;
  array.center = sim::Vec3{env.width / 2.0, 0.4, 1.25};
  array.axis = rf::Vec2{1.0, 0.0};
  array.num_antennas = config.num_antennas;
  sim::PlacementOptions placement;
  placement.distance_m = config.distance_m;
  sim::Scene scene(env,
                   sim::instantiate_activity(activity_id, config.num_persons, env,
                                             array.origin2d(), placement, rng),
                   array, config.tags_per_person);
  sim::ReaderConfig reader_config;
  reader_config.hopping = config.frequency_hopping;
  reader_config.report_doppler = false;
  sim::Reader reader(reader_config, config.num_antennas,
                     static_cast<int>(scene.tags().size()), rng.fork());
  for (const auto& tag : scene.tags()) tag_ids->push_back(tag.id);
  scene.set_motion_frozen(true);
  return reader.run(scene, 0.0, config.bootstrap_sec);
}

dsp::PhaseCalibrator calibrate(const std::vector<sim::TagReport>& reports) {
  dsp::PhaseCalibrator calibrator;
  for (const sim::TagReport& r : reports) {
    calibrator.add_sample(r.tag_id, r.antenna, r.channel, r.phase_rad);
  }
  calibrator.finalize();
  return calibrator;
}

// The calibration depends on report order: dsp::circular_median sums each
// candidate's distances in sample order and keeps the first of equal costs,
// so reordering the bootstrap moves medians. The time sort in Reader::run is
// therefore part of the calibration's contract, not dead weight.
TEST(Pipeline, BootstrapCalibrationDependsOnReportOrder) {
  int differing_tables = 0;
  for (const int activity : {1, 7}) {
    std::vector<std::uint32_t> tag_ids;
    const std::vector<sim::TagReport> sorted = bootstrap_reports(activity, 91, &tag_ids);
    ASSERT_GT(sorted.size(), 9000u);
    std::vector<sim::TagReport> shuffled = sorted;
    util::Rng(17).shuffle(shuffled);
    const dsp::PhaseCalibrator a = calibrate(sorted);
    const dsp::PhaseCalibrator b = calibrate(shuffled);
    for (const std::uint32_t tag : tag_ids) {
      for (int antenna = 0; antenna < PipelineConfig{}.num_antennas; ++antenna) {
        const dsp::CalibrationTable* ta = a.table(tag, antenna);
        const dsp::CalibrationTable* tb = b.table(tag, antenna);
        ASSERT_NE(ta, nullptr);
        ASSERT_NE(tb, nullptr);
        for (int c = 0; c < rf::kNumChannels; ++c) {
          const double oa = ta->offset(c), ob = tb->offset(c);
          if (std::memcmp(&oa, &ob, sizeof oa) != 0) {
            ++differing_tables;
            break;
          }
        }
      }
    }
  }
  // When written, all 48 tables differed, by up to 0.094 rad in an offset.
  EXPECT_GT(differing_tables, 0);
}

TEST(MakeEnvironment, MapsKinds) {
  EXPECT_EQ(make_environment(EnvironmentKind::kLaboratory).name, "laboratory");
  EXPECT_EQ(make_environment(EnvironmentKind::kHall).name, "hall");
}

}  // namespace
}  // namespace m2ai::core
