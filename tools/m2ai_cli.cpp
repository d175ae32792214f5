// m2ai — command-line front end to the library.
//
// Subcommands:
//   simulate  — synthesize one activity sample and dump the LLRP-style
//               report stream as CSV (the data a real deployment would log)
//   spectrum  — print the per-window pseudospectrum peaks of one sample
//   train     — generate a dataset, train the CNN+LSTM engine, report the
//               confusion matrix, and (optionally) save a checkpoint
//   eval      — load a checkpoint and evaluate it on freshly simulated data
//   catalog   — list the 12 activity scenarios
//
// Checkpoints produced by `train` assume the same pipeline/model settings
// at `eval` time (shapes are validated on load).
#include <cstdio>
#include <memory>
#include <string>

#include "core/experiment.hpp"
#include "dsp/music.hpp"
#include "kern/backend.hpp"
#include "nn/serialize.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "par/parallel_for.hpp"
#include "sim/activities.hpp"
#include "util/args.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace m2ai;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m2ai <command> [flags]\n"
               "  catalog\n"
               "  simulate --activity N [--persons P] [--tags T] [--seed S] [--out FILE]\n"
               "  spectrum --activity N [--seed S]\n"
               "  train    [--samples N] [--epochs E] [--persons P] [--tags T]\n"
               "           [--antennas A] [--seed S] [--model FILE] [--verbose]\n"
               "  eval     --model FILE [--samples N] [--seed S]\n"
               "all commands accept --threads N (worker threads for dataset\n"
               "generation, training, and evaluation; default: all hardware\n"
               "threads; results and checkpoints are identical at any N),\n"
               "--metrics-out FILE (JSON, or CSV if FILE ends in .csv),\n"
               "--trace (span tree on stderr at exit),\n"
               "--trace-out FILE (Chrome trace-event JSON for ui.perfetto.dev),\n"
               "and --backend ref|fast (kernel backend for inference; fast\n"
               "uses SIMD and falls back to ref without AVX2/FMA; training\n"
               "always runs ref — env override M2AI_KERN_BACKEND)\n");
  return 2;
}

core::ExperimentConfig config_from(const util::Args& args) {
  core::ExperimentConfig config;
  config.samples_per_class = args.get_int("samples", 24);
  config.train.epochs = args.get_int("epochs", 20);
  config.pipeline.num_persons = args.get_int("persons", 2);
  config.pipeline.tags_per_person = args.get_int("tags", 3);
  config.pipeline.num_antennas = args.get_int("antennas", 4);
  config.pipeline.distance_m = args.get_double("distance", 4.0);
  config.pipeline.windows_per_sample = args.get_int("windows", 20);
  config.train.crop_frames = 16;
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20180545));
  config.train.verbose = args.has("verbose");
  return config;
}

int cmd_catalog() {
  util::Table table({"id", "label", "scenario"});
  for (const auto& a : sim::activity_catalog()) {
    table.add_row({std::to_string(a.id), a.label, a.description});
  }
  table.print();
  return 0;
}

int cmd_simulate(const util::Args& args) {
  args.require_known({"activity", "persons", "tags", "seed", "out", "distance",
                      "windows", "antennas", "metrics-out", "trace", "trace-out",
                      "threads", "backend"});
  const int activity = args.get_int("activity", 1);
  core::ExperimentConfig config = config_from(args);
  core::Pipeline pipeline(config.pipeline, config.seed);
  pipeline.simulate_sample(activity);

  const std::string out = args.get("out", "reports.csv");
  util::CsvWriter csv(out, {"time_sec", "tag_id", "antenna", "channel",
                            "phase_rad", "rssi_dbm", "doppler_hz"});
  for (const auto& r : pipeline.last_reports()) {
    csv.add_row({util::Table::fmt(r.time_sec, 4), std::to_string(r.tag_id),
                 std::to_string(r.antenna), std::to_string(r.channel),
                 util::Table::fmt(r.phase_rad, 4), util::Table::fmt(r.rssi_dbm, 1),
                 util::Table::fmt(r.doppler_hz, 2)});
  }
  std::printf("wrote %zu LLRP reports for activity %d to %s\n",
              pipeline.last_reports().size(), activity, out.c_str());
  return 0;
}

int cmd_spectrum(const util::Args& args) {
  args.require_known({"activity", "persons", "tags", "seed", "distance", "windows",
                      "antennas", "metrics-out", "trace", "trace-out", "threads",
                      "backend"});
  const int activity = args.get_int("activity", 1);
  core::ExperimentConfig config = config_from(args);
  core::Pipeline pipeline(config.pipeline, config.seed);
  const core::Sample sample = pipeline.simulate_sample(activity);

  std::printf("pseudospectrum peaks per window (activity %s):\n",
              sim::activity_catalog()[static_cast<std::size_t>(activity - 1)]
                  .label.c_str());
  for (std::size_t w = 0; w < sample.frames.size(); ++w) {
    std::printf("  window %2zu:", w);
    for (int tag = 0; tag < sample.frames[w].pseudo.dim(0); ++tag) {
      std::vector<double> spec(180);
      for (int b = 0; b < 180; ++b) {
        spec[static_cast<std::size_t>(b)] = sample.frames[w].pseudo.at(tag, b);
      }
      const auto peaks = dsp::find_peaks(spec, 1, 0.5);
      std::printf(" tag%d@%3ddeg", tag + 1, peaks.empty() ? -1 : peaks[0]);
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_train(const util::Args& args) {
  args.require_known({"samples", "epochs", "persons", "tags", "antennas", "seed",
                      "model", "verbose", "distance", "windows", "metrics-out",
                      "trace", "trace-out", "threads", "backend"});
  const core::ExperimentConfig config = config_from(args);
  util::log_info() << "simulating " << config.samples_per_class << " samples/class";
  const core::DataSplit split = core::generate_dataset(config);

  std::unique_ptr<core::M2AINetwork> network;
  const core::M2AIResult result = core::train_and_evaluate(config, split, &network);

  std::vector<std::string> labels;
  for (const auto& a : sim::activity_catalog()) labels.push_back(a.label);
  std::printf("%s\n", result.confusion.to_string(labels).c_str());
  std::printf("test accuracy: %.1f%% (%zu parameters, %.0f s training)\n",
              result.accuracy * 100.0, result.num_parameters, result.train_seconds);

  if (args.has("model")) {
    const std::string path = args.get("model", "m2ai_model.bin");
    nn::save_params(path, network->params());
    std::printf("checkpoint saved to %s\n", path.c_str());
  }
  return 0;
}

int cmd_eval(const util::Args& args) {
  args.require_known({"model", "samples", "persons", "tags", "antennas", "seed",
                      "distance", "windows", "epochs", "metrics-out", "trace",
                      "trace-out", "threads", "backend"});
  if (!args.has("model")) return usage();
  core::ExperimentConfig config = config_from(args);
  config.seed ^= 0x5eedu;  // evaluate on data the checkpoint never saw

  core::M2AINetwork network(config.model, config.pipeline.feature_mode,
                            config.pipeline.num_persons * config.pipeline.tags_per_person,
                            config.pipeline.num_antennas, sim::num_activities());
  nn::load_params(args.get("model", ""), network.params());

  core::Pipeline pipeline(config.pipeline, config.seed);
  core::ConfusionMatrix cm(sim::num_activities());
  const int per_class = std::max(1, config.samples_per_class / 4);
  for (int activity = 1; activity <= sim::num_activities(); ++activity) {
    for (int i = 0; i < per_class; ++i) {
      const core::Sample s = pipeline.simulate_sample(activity);
      cm.add(s.label, network.predict(s.frames));
    }
  }
  std::vector<std::string> labels;
  for (const auto& a : sim::activity_catalog()) labels.push_back(a.label);
  std::printf("%s\n", cm.to_string(labels).c_str());
  std::printf("fresh-data accuracy: %.1f%% over %d sequences\n", cm.accuracy() * 100.0,
              cm.total());
  return 0;
}

// Enables the obs layer when --metrics-out/--trace/--trace-out are present;
// exports on destruction so every command (and early return) gets the report.
class ObservabilityScope {
 public:
  explicit ObservabilityScope(const util::Args& args)
      : metrics_out_(args.get("metrics-out", "")),
        trace_out_(args.get("trace-out", "")),
        trace_(args.has("trace")) {
    if (args.has("metrics-out") && metrics_out_.empty()) {
      std::fprintf(stderr, "warning: --metrics-out requires a file path; ignoring\n");
    }
    if (args.has("trace-out") && trace_out_.empty()) {
      std::fprintf(stderr, "warning: --trace-out requires a file path; ignoring\n");
    }
    if (!metrics_out_.empty() || !trace_out_.empty() || trace_) {
      obs::set_enabled(true);
    }
    if (!trace_out_.empty()) {
      obs::register_thread_name("main");
      obs::set_timeline_enabled(true);
    }
  }
  ~ObservabilityScope() {
    if (!metrics_out_.empty()) {
      try {
        obs::write_report(metrics_out_);
        std::fprintf(stderr, "metrics written to %s\n", metrics_out_.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "metrics export failed: %s\n", e.what());
      }
    }
    if (!trace_out_.empty()) {
      try {
        obs::write_chrome_trace(trace_out_);
        std::fprintf(stderr, "timeline written to %s (open in ui.perfetto.dev)\n",
                     trace_out_.c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "timeline export failed: %s\n", e.what());
      }
    }
    if (trace_) std::fputs(obs::span_tree().c_str(), stderr);
  }

 private:
  std::string metrics_out_;
  std::string trace_out_;
  bool trace_;
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::Args args(argc - 1, argv + 1);
  ObservabilityScope obs_scope(args);
  // 0 = hardware default. The parallel layer is deterministic, so any
  // thread count reproduces --threads 1 bit for bit.
  par::set_num_threads(args.get_int("threads", 0));
  try {
    // CLI flag wins over M2AI_KERN_BACKEND (applied at static init).
    // Training paths are pinned to ref regardless — see DESIGN.md §11.
    if (args.has("backend")) kern::set_backend_by_name(args.get("backend", "ref"));
    if (command == "catalog") return cmd_catalog();
    if (command == "simulate") return cmd_simulate(args);
    if (command == "spectrum") return cmd_spectrum(args);
    if (command == "train") return cmd_train(args);
    if (command == "eval") return cmd_eval(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m2ai %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  return usage();
}
