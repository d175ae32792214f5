// Traced runs: per-layer attribution measured from outside the program.
//
// A traced run replays the workload's own seed-generated report streams
// single-threaded through the public functions of each layer, in pipeline
// order, with a benchmark span around every call (common.hpp Tracer):
//
//   proto::append_inventory_frame / FrameParser::feed        proto.*
//   serve::StreamAssembler::ingest / flush (DSP at close)     serve.assemble
//   dsp::sample_covariance / eig_hermitian /
//     MusicEstimator::estimate_from_covariance /
//     averaged_periodogram on the window's per-tag snapshots  dsp.*
//   M2AINetwork::predict (ref) or predict_batch (fast)        core.predict*
//
// plus the layer probes that need no stream: sim::Pipeline::run_sample,
// core::FrameBuilder::build, Trainer::run_epoch, nn::Lstm / nn::Dense at the
// model's shapes, kern::measure_micro and the obs registry under contention.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"

namespace perfbench {

// One report stream of a replay.
struct ReplayStream {
  std::vector<m2ai::sim::TagReport> reports;
  const m2ai::dsp::PhaseCalibrator* calibrator = nullptr;
  double t_begin = 0.0;
};

struct ReplayCounts {
  std::uint64_t reports = 0;   // reports decoded from the wire
  std::uint64_t rejected = 0;  // wire frames + records the parsers rejected
  std::uint64_t frames = 0;    // windows the assemblers closed
  std::uint64_t requests = 0;  // sequences handed to the network
  double wall_s = 0.0;
};

// Replays `streams` through proto -> serve -> dsp -> core. `batch` > 1 sends
// sequences through predict_batch in groups of that size; 0 skips
// inference. Spans are recorded when the process tracer is enabled.
ReplayCounts replay(const std::vector<ReplayStream>& streams,
                    const m2ai::core::PipelineConfig& config,
                    m2ai::core::M2AINetwork* network, int batch);

// Simulates `activities` samples in generate_dataset's fork order (sample
// j = activity * per_class), timing run_sample (sim) and FrameBuilder::build
// (core) for each. Returns the runs.
std::vector<m2ai::core::SampleRun> traced_sources(const m2ai::core::PipelineConfig& config,
                                                  std::uint64_t seed, int per_class);

// Stream-free layer probes; adds nn.*, kern.* and obs.* metrics to `res`.
// `predict_ms` and `frames_per_request` derive nn.cnn_ns_per_frame.
void probe_layers(const m2ai::core::ModelConfig& model, double predict_ms,
                  int frames_per_request, Result& res);

// dsp.*, proto.*, serve.assemble_ns_per_report from the recorded spans.
void add_replay_metrics(const ReplayCounts& counts, Result& res);

}  // namespace perfbench
