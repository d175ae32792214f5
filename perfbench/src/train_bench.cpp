#include "train_bench.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>

#include "core/evaluator.hpp"
#include "kern/backend.hpp"
#include "obs/metrics.hpp"
#include "par/parallel_for.hpp"

namespace perfbench {

using namespace m2ai;

namespace {

constexpr int kSetups = 3;
// After each activity of the report-count pass (24 times over ~20 s), one
// evaluate() pass and kLatencyBlocks blocks of serial predict() calls, each
// this long. The host's speed flips between episodes of a fraction of a
// second to a few seconds, so many short blocks spread over the run give
// the latency probe many chances to run undisturbed.
constexpr double kLatencyBlockSeconds = 0.25;
constexpr int kLatencyBlocks = 2;
// Stated floor for test accuracy: 2.4x chance over 12 activities.
constexpr double kAccuracyFloor = 0.20;

struct Job {
  double datagen_s = 0.0;
  double datagen_cpu_s = 0.0;
  std::size_t samples = 0;
  std::uint64_t samples_digest = 0;  // sum of sample_digest over the samples
  std::size_t reports = 0;           // counted by the report-count pass
  std::uint64_t counted_digest = 0;  // the pass's own samples_digest
  std::vector<double> fit_s;
  std::vector<std::uint64_t> digests;
  std::size_t train_seqs = 0;  // per fit
  std::vector<double> eval_rates;
  std::size_t test_seqs = 0;
  double split_accuracy = 0.0;  // on the 20% test split alone
  double accuracy = 0.0;        // on test split + held-out set
  double agreement = 0.0;
  std::vector<double> latency_p50_ms, latency_p99_ms;  // per probe block
  std::size_t predictions = 0, within_slo = 0;
};

// Digest of one sample's label and frames; summed over a set, it does not
// depend on the order the set was shuffled into.
std::uint64_t sample_digest(const core::Sample& sample) {
  std::uint64_t h = fnv1a(&sample.label, sizeof sample.label);
  for (const core::SpectrumFrame& f : sample.frames) {
    h = fnv1a(f.pseudo.data(), f.pseudo.size() * sizeof(float), h);
    h = fnv1a(f.aux.data(), f.aux.size() * sizeof(float), h);
  }
  return h;
}

std::uint64_t samples_digest(const std::vector<core::Sample>& samples) {
  std::uint64_t sum = 0;
  for (const core::Sample& s : samples) sum += sample_digest(s);
  return sum;
}

// Reports behind generate_dataset(config), counted in an untimed pass that
// simulates every sample again in generate_dataset's fork order (the reader
// drops reads on empty paths and weak signal, so counts vary per sample).
// The pass's summed sample digest must match the generated dataset's.
// `after_activity` runs once each activity's samples are counted.
struct ReportCount {
  std::size_t reports = 0;
  std::uint64_t samples_digest = 0;
};

ReportCount count_reports(const core::ExperimentConfig& config,
                          const std::function<void()>& after_activity) {
  core::Pipeline pipeline(config.pipeline, config.seed);
  const auto per_class = static_cast<std::size_t>(config.samples_per_class);
  std::vector<util::Rng> rngs;
  for (std::size_t j = 0; j < per_class * kNumClasses; ++j) {
    rngs.push_back(pipeline.fork_sample_rng());
  }
  ReportCount sum;
  for (int a = 0; a < kNumClasses; ++a) {
    const auto counted = par::parallel_map<ReportCount>(per_class, [&](std::size_t i) {
      const core::SampleRun run =
          pipeline.run_sample(a + 1, rngs[static_cast<std::size_t>(a) * per_class + i]);
      return ReportCount{run.reports.size(), sample_digest(run.sample)};
    });
    for (const ReportCount& c : counted) {
      sum.reports += c.reports;
      sum.samples_digest += c.samples_digest;
    }
    after_activity();
  }
  return sum;
}

// Mean of the middle half of `v` (its values between the quartiles).
double interquartile_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return hi > lo ? sum / static_cast<double>(hi - lo) : 0.0;
}

std::uint64_t weights_digest(core::M2AINetwork& network) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const nn::Param* p : network.params()) {
    h = fnv1a(p->value.data(), p->value.size() * sizeof(float), h);
  }
  return h;
}

// The job's phases alternate, so that data generation and fitting are each
// timed at several moments of the run: generate the train/test split, fit,
// generate the held-out set, count and probe the split, fit, count and probe
// the held-out set, fit.
Job run_job(const core::ExperimentConfig& config, const std::string& inject) {
  Job job;
  const auto generate = [&](const core::ExperimentConfig& c) {
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    core::DataSplit d = core::generate_dataset(c);
    job.datagen_s += now_s() - t0;
    job.datagen_cpu_s += process_cpu_s() - c0;
    return d;
  };
  const core::DataSplit split = generate(config);

  std::unique_ptr<core::M2AINetwork> network;
  const auto fit = [&] {
    network = std::make_unique<core::M2AINetwork>(
        config.model, config.pipeline.feature_mode,
        config.pipeline.num_persons * config.pipeline.tags_per_person,
        config.pipeline.num_antennas, split.num_classes);
    const double t0 = now_s();
    core::Trainer trainer(*network, config.train);
    trainer.fit(split.train);
    job.fit_s.push_back(now_s() - t0);
    job.digests.push_back(weights_digest(*network));
  };
  fit();
  job.train_seqs = split.train.size() * static_cast<std::size_t>(config.train.epochs);

  // A held-out set of the same size from the same seed: 60 test sequences
  // alone make test accuracy swing by a quarter from seed to seed.
  const core::ExperimentConfig held_config = held_out_config(config);
  core::DataSplit held = generate(held_config);
  job.samples = split.train.size() + split.test.size() + held.test.size();
  job.samples_digest =
      samples_digest(split.train) + samples_digest(split.test) + samples_digest(held.test);
  std::vector<core::Sample> test = std::move(held.test);
  test.insert(test.end(), split.test.begin(), split.test.end());
  job.test_seqs = test.size();
  job.split_accuracy = core::evaluate(*network, split.test).accuracy();

  // Serial labels, compared cell by cell with evaluate()'s below.
  core::ConfusionMatrix serial(split.num_classes);
  for (const core::Sample& s : test) {
    int label = network->predict(s.frames);
    if (inject == "flip-label" && &s == &test.front()) {
      label = (label + 1) % split.num_classes;  // self-test fault
    }
    serial.add(s.label, label);
  }

  core::ConfusionMatrix cm(split.num_classes);
  const auto probe = [&] {
    const double t0 = now_s();
    cm = core::evaluate(*network, test);
    job.eval_rates.push_back(static_cast<double>(test.size()) / (now_s() - t0));
    for (int b = 0; b < kLatencyBlocks; ++b) {
      std::vector<double> block;
      const double start = now_s();
      for (std::size_t i = 0; block.empty() || now_s() - start < kLatencyBlockSeconds; ++i) {
        const double t = now_s();
        network->predict(test[i % test.size()].frames);
        block.push_back((now_s() - t) * 1e3);
      }
      job.latency_p50_ms.push_back(quantile(block, 0.5));
      job.latency_p99_ms.push_back(quantile(block, 0.99));
      job.predictions += block.size();
      for (double ms : block) job.within_slo += ms <= 100.0 ? 1 : 0;
    }
  };
  const ReportCount split_count = count_reports(config, probe);
  fit();
  const ReportCount held_count = count_reports(held_config, probe);
  fit();
  job.reports = split_count.reports + held_count.reports;
  job.counted_digest = split_count.samples_digest + held_count.samples_digest;

  job.accuracy = cm.accuracy();
  std::size_t same = 0;
  for (int a = 0; a < split.num_classes; ++a) {
    for (int p = 0; p < split.num_classes; ++p) {
      same += static_cast<std::size_t>(std::min(cm.count(a, p), serial.count(a, p)));
    }
  }
  job.agreement = job.test_seqs ? static_cast<double>(same) / static_cast<double>(job.test_seqs)
                                : 0.0;
  return job;
}

}  // namespace

core::ExperimentConfig train_config(std::uint64_t seed) {
  // `m2ai train --samples 24 --epochs 20 --threads 4` (tools/m2ai_cli.cpp).
  core::ExperimentConfig config;
  config.samples_per_class = 24;
  config.train.epochs = 20;
  config.pipeline.windows_per_sample = 20;
  config.train.crop_frames = 16;
  config.seed = seed;
  return config;
}

core::ExperimentConfig held_out_config(const core::ExperimentConfig& config) {
  core::ExperimentConfig held = config;
  held.seed = config.seed ^ 0x4e1d'0000'0000'0000ULL;
  held.train_fraction = 0.0;  // every sample lands in the test side
  return held;
}

double train_set_up(const core::ExperimentConfig& config) {
  // Everything a training job does before its data generation starts:
  // worker pool, pipeline, network and trainer construction, and one warm-up
  // sample per worker (first-use caches such as the steering tables).
  const double t0 = now_s();
  core::Pipeline pipeline(config.pipeline, config.seed ^ 0x3a7b'0000'0000'0001ULL);
  core::M2AINetwork network(config.model, config.pipeline.feature_mode,
                            config.pipeline.num_persons * config.pipeline.tags_per_person,
                            config.pipeline.num_antennas, kNumClasses);
  core::Trainer trainer(network, config.train);
  const auto workers = static_cast<std::size_t>(par::num_threads());
  std::vector<util::Rng> rngs;
  for (std::size_t w = 0; w < workers; ++w) rngs.push_back(pipeline.fork_sample_rng());
  par::parallel_for(workers, [&](std::size_t w) {
    pipeline.run_sample(static_cast<int>(w % kNumClasses) + 1, rngs[w]);
  });
  return now_s() - t0;
}

Result run_train_offline(const Options& opt) {
  Result res;
  kern::set_backend(kern::BackendKind::kReference);
  obs::set_enabled(false);
  par::set_num_threads(kTrainThreads);
  const core::ExperimentConfig config = train_config(opt.seed);

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(train_set_up(config));

  const Job j = run_job(config, opt.inject);
  const double reports = static_cast<double>(j.reports);
  double fit_s = 0.0;
  for (double t : j.fit_s) fit_s += t;
  std::printf("train_offline: weights digest %016llx; accuracy %.4f on the test split, "
              "%.4f with the held-out set; datagen %.2f s, fit %.2f s x %zu\n",
              static_cast<unsigned long long>(j.digests.front()), j.split_accuracy, j.accuracy,
              j.datagen_s, fit_s / static_cast<double>(j.fit_s.size()), j.fit_s.size());
  res.attempted += j.samples + j.test_seqs;
  const std::size_t want = 2 * static_cast<std::size_t>(config.samples_per_class) * kNumClasses;
  res.failed += want > j.samples ? want - j.samples : 0;
  res.check(j.samples == want,
            "dataset has " + std::to_string(j.samples) + " samples, want " + std::to_string(want));
  res.check(j.counted_digest == j.samples_digest,
            "report-count pass did not reproduce the generated samples");
  res.check(std::equal(j.digests.begin() + 1, j.digests.end(), j.digests.begin()),
            "fits of the same data trained different weights");
  res.check(j.accuracy >= kAccuracyFloor, "test_accuracy " + std::to_string(j.accuracy) +
                                              " below the floor " + std::to_string(kAccuracyFloor));
  res.check(j.agreement == 1.0, "evaluate() and serial predict() disagree on test labels");

  res.add("setup_s", median(setups), "s");
  res.add("peak_rss_mb", peak_rss_mb(), "MiB");
  // p50 is the fastest block's median: the latency of predict() when the
  // host lets it run undisturbed. The share of blocks that fall in the
  // host's slow episodes (about 1.6x slower, for any code on any core)
  // changes from run to run, so any average over the blocks followed that
  // share. p99 is an interquartile mean of the blocks' p99: a tail includes
  // the slow episodes by nature, and the mean of the middle half ignores the
  // few blocks a stall of the host hit (one block's p99 read 21 ms, the
  // other 23 at most 3).
  res.add("e2e_p50_ms",
          *std::min_element(j.latency_p50_ms.begin(), j.latency_p50_ms.end()), "ms");
  res.add("e2e_p99_ms", interquartile_mean(j.latency_p99_ms), "ms");
  res.add("within_slo_ratio",
          static_cast<double>(j.within_slo) / static_cast<double>(j.predictions), "ratio");
  res.add("service_cpu_us_per_report", j.datagen_cpu_s / reports * 1e6, "us");
  res.add("label_agreement", j.agreement, "ratio");
  res.add("reports_per_s", reports / j.datagen_s, "1/s");
  res.add("predictions_per_s", median(j.eval_rates), "1/s");
  res.add("datagen_samples_per_s", static_cast<double>(j.samples) / j.datagen_s, "1/s");
  res.add("train_seqs_per_s", static_cast<double>(j.train_seqs * j.fit_s.size()) / fit_s, "1/s");
  res.add("test_accuracy", j.accuracy, "ratio");
  return res;
}

}  // namespace perfbench
