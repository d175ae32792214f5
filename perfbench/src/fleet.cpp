#include "fleet.hpp"

#include <atomic>
#include <cmath>
#include <thread>

#include "nn/serialize.hpp"
#include "par/parallel_for.hpp"
#include "sim/activities.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace m2ai;

core::PipelineConfig serve_pipeline_config() {
  core::PipelineConfig config;  // paper defaults: 2 persons x 3 tags, 4 antennas
  config.windows_per_sample = 16;
  return config;
}

std::unique_ptr<core::M2AINetwork> load_served_network(const std::string& path) {
  const core::PipelineConfig config = serve_pipeline_config();
  auto network = std::make_unique<core::M2AINetwork>(
      core::ModelConfig{}, config.feature_mode,
      config.num_persons * config.tags_per_person, config.num_antennas,
      kNumClasses);
  nn::load_params(path, network->params());
  return network;
}

Fleet::Fleet(std::uint64_t seed, int threads)
    : config_(serve_pipeline_config()) {
  // Source samples: one per activity, forked in activity order so the
  // result is the same at any thread count.
  core::Pipeline pipeline(config_, kCorpusSeed);
  const int activities = sim::num_activities();
  std::vector<util::Rng> rngs;
  for (int a = 0; a < activities; ++a) rngs.push_back(pipeline.fork_sample_rng());
  // Plain threads, joined here, rather than the par pool: no worker may
  // outlive set-up, so the serving process never has more threads than
  // cores. The pipeline's own fan-out (frame building) stays serial for the
  // same reason.
  const par::ScopedNumThreads serial(1);
  sources_.resize(static_cast<std::size_t>(activities));
  std::atomic<int> next{0};
  const auto simulate = [&] {
    for (int a = next++; a < activities; a = next++) {
      sources_[static_cast<std::size_t>(a)] =
          pipeline.run_sample(a + 1, rngs[static_cast<std::size_t>(a)]);
    }
  };
  std::vector<std::thread> workers;
  for (int t = 1; t < threads; ++t) workers.emplace_back(simulate);
  simulate();
  for (auto& w : workers) w.join();

  // Window 0 of a source sample starts half a window after the bootstrap
  // (see core::Pipeline::run_sample).
  const double t0 = config_.phase_calibration
                        ? config_.bootstrap_sec + 0.5 * config_.window_sec
                        : 0.5 * config_.window_sec;
  util::Rng rng(seed ^ 0x5eed'f1ee'7000'0000ULL);
  // Streams cycle over the activities from a seed-chosen one, so every
  // activity is served by as many streams as the count allows.
  const int first_source = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(activities)));
  plans_.resize(static_cast<std::size_t>(kStreams));
  for (int s = 0; s < kStreams; ++s) {
    StreamPlan& p = plans_[static_cast<std::size_t>(s)];
    p.source = (first_source + s) % activities;
    const auto& reports = sources_[static_cast<std::size_t>(p.source)].reports;
    p.start = static_cast<std::size_t>(rng.uniform_int(reports.size()));
    // Anchor window 0 on the window holding the start report, so the stream
    // starts mid-window (its first frame is partial) and streams close their
    // windows at different instants.
    const double w0 =
        std::floor((reports[p.start].time_sec - t0) / config_.window_sec);
    p.t_begin = t0 + w0 * config_.window_sec;
    // The assembler drops a report that rounds into window -1; start after it.
    while (window(s, 0) < 0) ++p.start;
    p.phase_s = rng.uniform(0.0, 0.004);
  }
}

sim::TagReport Fleet::report(int s, std::size_t j) const {
  const StreamPlan& p = plan(s);
  const auto& reports = source(s).reports;
  const std::size_t k = p.start + j;
  sim::TagReport r = reports[k % reports.size()];
  r.time_sec += static_cast<double>(k / reports.size()) * config_.sample_duration_sec();
  return r;
}

long Fleet::window(int s, std::size_t j) const {
  return static_cast<long>(
      std::floor((report(s, j).time_sec - plan(s).t_begin) / config_.window_sec));
}

std::size_t Fleet::first_report_of_window(int s, long w) const {
  std::size_t j = 0;
  while (window(s, j) < w) ++j;
  return j;
}

core::FrameSequence Fleet::reference_frames(int s, std::size_t n_reports,
                                            long num_windows) const {
  core::PipelineConfig config = config_;
  config.windows_per_sample = static_cast<int>(num_windows);
  std::vector<sim::TagReport> reports;
  reports.reserve(n_reports);
  for (std::size_t j = 0; j < n_reports; ++j) reports.push_back(report(s, j));
  const core::FrameBuilder frames_builder(config, source(s).calibrator.get(), num_tags());
  return frames_builder.build(reports, plan(s).t_begin);
}

}  // namespace perfbench
