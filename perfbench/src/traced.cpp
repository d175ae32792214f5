#include "traced.hpp"

#include <algorithm>
#include <cmath>

#include "kern/backend.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "par/parallel_for.hpp"
#include "serve_bench.hpp"
#include "train_bench.hpp"

namespace perfbench {

using namespace m2ai;

namespace {

// Streams and windows per stream the serve replay pushes through the
// layers (the workload's own first streams, from their first report).
constexpr int kReplayStreams = 8;
constexpr long kReplayWindows = 32;
// Epochs the traced train run times.
constexpr int kTracedEpochs = 3;

// Replays once untraced, once traced (under a root span), once untraced
// again; the traced pass's spans feed the metrics, the wall-time ratio
// gives the tracing overhead.
ReplayCounts replay_with_overhead(const std::vector<ReplayStream>& streams,
                                  const core::PipelineConfig& config,
                                  core::M2AINetwork* network, int batch, double* overhead) {
  tracer().set_enabled(false);
  const double untraced_a = replay(streams, config, network, batch).wall_s;
  tracer().set_enabled(true);
  const ReplayCounts counts = [&] {
    Scope root("replay");
    return replay(streams, config, network, batch);
  }();
  tracer().set_enabled(false);
  const double untraced_b = replay(streams, config, network, batch).wall_s;
  tracer().set_enabled(true);
  *overhead = counts.wall_s / (0.5 * (untraced_a + untraced_b)) - 1.0;
  return counts;
}

double per_call_ms(const std::string& span) {
  const std::size_t n = tracer().count(span);
  return n ? tracer().total_ns(span) / static_cast<double>(n) / 1e6 : 0.0;
}

// Summed self time of layer spans under every root named `root` over the
// roots' summed duration. Only replay_with_overhead opens "replay" roots; the
// layer probes run under "probes" roots, which coverage leaves out.
double coverage(const std::string& root) {
  double covered = 0.0, wall = 0.0;
  const auto& spans = tracer().spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (root != spans[i].name) continue;
    covered += tracer().layer_self_ns_under(static_cast<int>(i));
    wall += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
  }
  return wall > 0 ? covered / wall : 0.0;
}

void epoch_metrics(const std::vector<core::EpochStats>& stats,
                   const std::vector<double>& seconds, Result& res) {
  double busy = 0.0, capacity = 0.0;
  for (std::size_t i = 0; i < stats.size(); ++i) {
    busy += stats[i].replica_busy_seconds;
    capacity += seconds[i] * stats[i].replicas;
  }
  res.add("core.epoch_s", median(seconds), "s");
  res.add("par.replica_busy_ratio", capacity > 0 ? busy / capacity : 0.0, "ratio");
}

std::vector<double> timed_epochs(core::Trainer& trainer, const std::vector<core::Sample>& train,
                                 int epochs, std::vector<core::EpochStats>* stats) {
  std::vector<double> seconds;
  for (int e = 0; e < epochs; ++e) {
    Scope span("core.epoch", static_cast<std::uint64_t>(e));
    const double t0 = now_s();
    stats->push_back(trainer.run_epoch(train));
    seconds.push_back(now_s() - t0);
  }
  return seconds;
}

void finish_trace(const Options& opt, Result& res) {
  res.add("trace.coverage_ratio", coverage("replay"), "ratio");
  if (!opt.trace_out.empty()) tracer().write(opt.trace_out);
}

}  // namespace

Result traced_serve(const Options& opt, bool saturate) {
  tracer().set_enabled(true);
  // Service run for the counters only a running service has (batching,
  // refusals, windows per report), at the workload's load, shortened.
  Options live = opt;
  live.seconds = std::clamp(0.4 * opt.seconds, 1.0, 5.0);
  ServiceCounters counters;
  Result res = saturate ? run_serve_saturate(live, true, &counters)
                        : run_serve_paced(live, true, &counters);
  const auto& st = counters.stats;
  const double batch_mean =
      st.batches ? static_cast<double>(st.predictions) / static_cast<double>(st.batches) : 0.0;

  // Single-threaded replay of the same inputs.
  par::set_num_threads(1);
  if (saturate) kern::set_backend_by_name("fast");
  else kern::set_backend(kern::BackendKind::kReference);
  const Fleet fleet(opt.seed, 1);
  std::vector<ReplayStream> streams;
  for (int s = 0; s < std::min(kReplayStreams, fleet.num_streams()); ++s) {
    ReplayStream rs;
    const std::size_t n = fleet.first_report_of_window(s, kReplayWindows);
    for (std::size_t j = 0; j < n; ++j) rs.reports.push_back(fleet.report(s, j));
    rs.calibrator = fleet.source(s).calibrator.get();
    rs.t_begin = fleet.plan(s).t_begin;
    streams.push_back(std::move(rs));
  }
  const auto network = load_served_network(opt.model_path);
  const int batch = saturate ? std::max(1, static_cast<int>(std::lround(batch_mean))) : 1;
  double overhead = 0.0;
  const ReplayCounts counts =
      replay_with_overhead(streams, fleet.config(), network.get(), batch, &overhead);
  const double predict_ms =
      saturate ? tracer().total_ns("core.predict_batch") / 1e6 /
                     static_cast<double>(std::max<std::uint64_t>(counts.requests, 1))
               : per_call_ms("core.predict");
  {
    Scope root("probes");
    const auto runs = traced_sources(fleet.config(), kCorpusSeed, 1);
    probe_layers(core::ModelConfig{}, predict_ms, kSequenceFrames, res);
    // The trainer's data-parallel epoch on the fleet's source samples.
    par::set_num_threads(kTrainThreads);
    kern::set_backend(kern::BackendKind::kReference);
    std::vector<core::Sample> samples;
    for (const auto& run : runs) samples.push_back(run.sample);
    auto net = network->clone();
    core::Trainer trainer(*net, core::TrainConfig{});
    std::vector<core::EpochStats> stats;
    const std::vector<double> seconds = timed_epochs(trainer, samples, 1, &stats);
    epoch_metrics(stats, seconds, res);
  }

  add_replay_metrics(counts, res);
  res.add("serve.frames_per_kreport",
          st.reports ? static_cast<double>(st.frames) / static_cast<double>(st.reports) * 1e3 : 0.0,
          "count");
  res.add("serve.batch_mean", batch_mean, "count");
  res.add("serve.offer_refused_ratio",
          counters.offers ? static_cast<double>(counters.offers_refused) /
                                static_cast<double>(counters.offers)
                          : 0.0,
          "ratio");
  res.add("core.predict_ms_per_request", predict_ms, "ms");
  res.add("core.frames_build_ms_per_sample", per_call_ms("core.frames_build"), "ms");
  res.add("sim.run_sample_ms", per_call_ms("sim.run_sample"), "ms");
  res.add("trace.overhead_ratio", overhead, "ratio");
  finish_trace(opt, res);
  return res;
}

Result traced_train(const Options& opt) {
  Result res;
  tracer().set_enabled(true);
  kern::set_backend(kern::BackendKind::kReference);
  obs::set_enabled(false);
  par::set_num_threads(kTrainThreads);
  const core::ExperimentConfig config = train_config(opt.seed);
  train_set_up(config);

  core::DataSplit split;
  {
    Scope span("core.generate_dataset");
    split = core::generate_dataset(config);
  }
  res.attempted += split.train.size() + split.test.size();
  core::M2AINetwork network(config.model, config.pipeline.feature_mode,
                            config.pipeline.num_persons * config.pipeline.tags_per_person,
                            config.pipeline.num_antennas, split.num_classes);
  core::Trainer trainer(network, config.train);
  std::vector<core::EpochStats> stats;
  const std::vector<double> seconds = timed_epochs(trainer, split.train, kTracedEpochs, &stats);
  epoch_metrics(stats, seconds, res);

  // Single-threaded replay of one sample per activity, simulated in
  // generate_dataset's fork order, through the same layers as serving.
  par::set_num_threads(1);
  std::vector<core::SampleRun> runs;
  {
    Scope root("probes");
    runs = traced_sources(config.pipeline, config.seed, config.samples_per_class);
  }
  std::vector<ReplayStream> streams;
  const double t0 = config.pipeline.bootstrap_sec + 0.5 * config.pipeline.window_sec;
  for (const auto& run : runs) {
    streams.push_back(ReplayStream{run.reports, run.calibrator.get(), t0});
  }
  double overhead = 0.0;
  const ReplayCounts counts =
      replay_with_overhead(streams, config.pipeline, nullptr, 0, &overhead);
  {
    Scope root("probes");
    for (std::size_t i = 0; i < split.test.size(); ++i) {
      Scope span("core.predict", i);
      network.predict(split.test[i].frames);
    }
    probe_layers(config.model, per_call_ms("core.predict"), config.pipeline.windows_per_sample,
                 res);
  }
  add_replay_metrics(counts, res);
  res.add("serve.frames_per_kreport",
          counts.reports ? static_cast<double>(counts.frames) /
                               static_cast<double>(counts.reports) * 1e3
                         : 0.0,
          "count");
  // No service runs in this workload.
  res.add("serve.batch_mean", 0.0, "count");
  res.add("serve.offer_refused_ratio", 0.0, "ratio");
  res.add("core.predict_ms_per_request", per_call_ms("core.predict"), "ms");
  res.add("core.frames_build_ms_per_sample", per_call_ms("core.frames_build"), "ms");
  res.add("sim.run_sample_ms", per_call_ms("sim.run_sample"), "ms");
  res.add("trace.overhead_ratio", overhead, "ratio");
  finish_trace(opt, res);
  return res;
}

}  // namespace perfbench
