#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <thread>

#include "dsp/covariance.hpp"
#include "dsp/eig.hpp"
#include "dsp/periodogram.hpp"
#include "fleet.hpp"
#include "kern/backend.hpp"
#include "kern/micro.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proto/parser.hpp"
#include "proto/wire.hpp"
#include "serve/assembler.hpp"
#include "sim/activities.hpp"

namespace perfbench {

using namespace m2ai;

namespace {

// Per-tag aligned snapshots of one window, built from calibrated reports the
// way the batch and streaming paths build them (snapshot k needs reading k
// on every antenna).
class WindowSnapshots {
 public:
  WindowSnapshots(int tags, int antennas)
      : amps_(static_cast<std::size_t>(tags),
              std::vector<std::vector<double>>(static_cast<std::size_t>(antennas))),
        phases_(amps_) {}

  void add(const sim::TagReport& r, const dsp::PhaseCalibrator* calibrator) {
    const int tag = static_cast<int>(r.tag_id) - 1;
    if (tag < 0 || tag >= static_cast<int>(amps_.size()) || r.antenna < 0 ||
        r.antenna >= static_cast<int>(amps_[0].size())) {
      return;
    }
    const double psi = calibrator != nullptr
                           ? calibrator->apply(r.tag_id, r.antenna, r.channel, r.phase_rad)
                           : r.phase_rad;
    const auto t = static_cast<std::size_t>(tag);
    const auto a = static_cast<std::size_t>(r.antenna);
    amps_[t][a].push_back(core::rssi_to_amplitude(r.rssi_dbm));
    phases_[t][a].push_back(psi);
  }

  // Runs the four DSP stages of window close on every tag's snapshots.
  void process(const dsp::MusicEstimator& music, const dsp::CovarianceOptions& cov) {
    for (std::size_t t = 0; t < amps_.size(); ++t) {
      std::size_t n = amps_[t][0].size();
      for (const auto& per_ant : amps_[t]) n = std::min(n, per_ant.size());
      if (n >= 2) {
        std::vector<std::vector<dsp::cdouble>> snaps(n);
        for (std::size_t k = 0; k < n; ++k) {
          snaps[k].resize(amps_[t].size());
          for (std::size_t a = 0; a < amps_[t].size(); ++a) {
            snaps[k][a] = std::polar(amps_[t][a][k], phases_[t][a][k]);
          }
        }
        dsp::CMatrix r;
        {
          Scope span("dsp.covariance");
          r = dsp::sample_covariance(snaps, cov);
        }
        {
          Scope span("dsp.eig");
          const dsp::EigResult eig = dsp::eig_hermitian(r);
          (void)eig;
        }
        {
          Scope span("dsp.music");
          const dsp::MusicResult m = music.estimate_from_covariance(r);
          (void)m;
        }
        {
          Scope span("dsp.periodogram");
          const std::vector<double> p = dsp::averaged_periodogram(snaps);
          (void)p;
        }
      }
      for (auto& v : amps_[t]) v.clear();
      for (auto& v : phases_[t]) v.clear();
    }
  }

 private:
  std::vector<std::vector<std::vector<double>>> amps_;    // [tag][antenna][k]
  std::vector<std::vector<std::vector<double>>> phases_;  // [tag][antenna][k]
};

double per_call(const std::string& span) {
  const std::size_t n = tracer().count(span);
  return n ? tracer().total_ns(span) / static_cast<double>(n) : 0.0;
}

}  // namespace

ReplayCounts replay(const std::vector<ReplayStream>& streams,
                    const core::PipelineConfig& config, core::M2AINetwork* network,
                    int batch) {
  ReplayCounts counts;
  const double t0 = now_s();
  const int tags = config.num_persons * config.tags_per_person;
  const auto seq_len = static_cast<std::size_t>(config.windows_per_sample);
  proto::WireOptions wire;
  wire.records_per_frame = kRecordsPerFrame;
  std::vector<core::FrameSequence> pending;
  const auto run_batch = [&] {
    if (pending.empty()) return;
    std::vector<const core::FrameSequence*> ptrs;
    for (const auto& seq : pending) ptrs.push_back(&seq);
    Scope span("core.predict_batch", counts.requests);
    network->predict_batch(ptrs);
    pending.clear();
  };

  for (const ReplayStream& rs : streams) {
    proto::FrameParser parser;
    serve::StreamAssembler assembler(config, rs.calibrator, tags, rs.t_begin);
    const core::FrameBuilder frames_builder(config, rs.calibrator, tags);
    WindowSnapshots window(tags, config.num_antennas);
    long current = 0;
    std::deque<core::SpectrumFrame> recent;
    const auto on_frames = [&](std::vector<core::SpectrumFrame> frames) {
      for (auto& f : frames) {
        ++counts.frames;
        recent.push_back(std::move(f));
        if (recent.size() > seq_len) recent.pop_front();
        if (recent.size() < seq_len || network == nullptr || batch <= 0) continue;
        ++counts.requests;
        if (batch == 1) {
          const core::FrameSequence seq(recent.begin(), recent.end());
          Scope span("core.predict", counts.requests);
          network->predict(seq);
        } else {
          pending.emplace_back(recent.begin(), recent.end());
          if (pending.size() >= static_cast<std::size_t>(batch)) run_batch();
        }
      }
    };
    std::vector<std::uint8_t> bytes;
    std::vector<sim::TagReport> decoded;
    for (std::size_t i = 0; i < rs.reports.size(); i += kRecordsPerFrame) {
      const std::size_t n = std::min(kRecordsPerFrame, rs.reports.size() - i);
      bytes.clear();
      decoded.clear();
      {
        Scope span("proto.serialize");
        proto::append_inventory_frame(&rs.reports[i], n, wire, bytes);
      }
      {
        Scope span("proto.feed");
        parser.feed(bytes.data(), bytes.size(), decoded);
      }
      for (const sim::TagReport& r : decoded) {
        ++counts.reports;
        const long w = static_cast<long>(std::floor((r.time_sec - rs.t_begin) / config.window_sec));
        if (w > current) {
          window.process(frames_builder.music(), config.covariance);
          current = w;
        }
        std::vector<core::SpectrumFrame> closed;
        {
          Scope span("serve.assemble");
          closed = assembler.ingest(r);
        }
        window.add(r, rs.calibrator);
        on_frames(std::move(closed));
      }
    }
    parser.finish();
    counts.rejected += parser.stats().rejected_frames() + parser.stats().rejected_records();
    window.process(frames_builder.music(), config.covariance);
    std::vector<core::SpectrumFrame> closed;
    {
      Scope span("serve.assemble");
      closed = assembler.flush();
    }
    on_frames(std::move(closed));
  }
  run_batch();
  counts.wall_s = now_s() - t0;
  return counts;
}

std::vector<core::SampleRun> traced_sources(const core::PipelineConfig& config,
                                            std::uint64_t seed, int per_class) {
  core::Pipeline pipeline(config, seed);
  const int activities = sim::num_activities();
  std::vector<util::Rng> rngs;
  for (int j = 0; j < activities * per_class; ++j) rngs.push_back(pipeline.fork_sample_rng());
  const double t0 = config.phase_calibration ? config.bootstrap_sec + 0.5 * config.window_sec
                                             : 0.5 * config.window_sec;
  std::vector<core::SampleRun> runs;
  for (int a = 0; a < activities; ++a) {
    {
      Scope span("sim.run_sample", static_cast<std::uint64_t>(a));
      runs.push_back(pipeline.run_sample(a + 1, rngs[static_cast<std::size_t>(a * per_class)]));
    }
    const core::SampleRun& run = runs.back();
    const core::FrameBuilder frames_builder(config, run.calibrator.get(),
                                     config.num_persons * config.tags_per_person);
    Scope span("core.frames_build", static_cast<std::uint64_t>(a));
    const core::FrameSequence frames = frames_builder.build(run.reports, t0);
    (void)frames;
  }
  return runs;
}

void probe_layers(const core::ModelConfig& model, double predict_ms,
                  int frames_per_request, Result& res) {
  // nn: the model's LSTM stack and softmax head at their real shapes.
  util::Rng rng(model.seed);
  nn::Lstm lstm1(model.merge_features, model.lstm_hidden, rng);
  nn::Lstm lstm2(model.lstm_hidden, model.lstm_hidden, rng);
  nn::Dense head(model.lstm_hidden, 12, rng);
  std::vector<nn::Tensor> inputs;
  for (int t = 0; t < frames_per_request; ++t) {
    nn::Tensor x({model.merge_features});
    x.randomize_uniform(rng, -1.0f, 1.0f);
    inputs.push_back(std::move(x));
  }
  constexpr int kLstmReps = 200;
  for (int i = 0; i < kLstmReps; ++i) {
    Scope span("nn.lstm");
    const std::vector<nn::Tensor> h2 = lstm2.forward(lstm1.forward(inputs, false), false);
    (void)h2;
  }
  nn::Tensor h({model.lstm_hidden});
  h.randomize_uniform(rng, -1.0f, 1.0f);
  constexpr int kDenseReps = 4000;
  for (int i = 0; i < kDenseReps; ++i) {
    Scope span("nn.dense");
    const nn::Tensor y = head.forward(h, false);
    (void)y;
  }
  const double lstm_step_ns = per_call("nn.lstm") / frames_per_request;
  const double dense_ns = per_call("nn.dense");
  res.add("nn.lstm_ns_per_step", lstm_step_ns, "ns");
  res.add("nn.dense_ns_per_call", dense_ns, "ns");
  // The LSTM steps once per frame, the head once per request.
  res.add("nn.cnn_ns_per_frame",
          (predict_ms * 1e6 - frames_per_request * lstm_step_ns - dense_ns) / frames_per_request,
          "ns");

  // kern: the active backend's micro-kernels at serving shapes. Operation
  // counts and bytes per call are computed from those shapes
  // (kern/micro.cpp), not measured.
  kern::KernMicro micro;
  {
    Scope span("kern.micro");
    micro = kern::measure_micro(kern::active());
  }
  res.add("kern.gemv_ns", micro.gemv_ns, "ns");
  res.add("kern.gemv_flop_per_call", 2.0 * 128 * 64, "count");
  res.add("kern.gemv_bytes_per_call", 4.0 * (128 * 64 + 64 + 128 + 128), "B");
  res.add("kern.gemm_bias_ns", micro.gemm_bias_ns, "ns");
  res.add("kern.gemm_bias_flop_per_call", 2.0 * 8 * 64 * 128, "count");
  res.add("kern.gemm_bias_bytes_per_call", 4.0 * (8 * 64 + 64 * 128 + 128 + 8 * 128), "B");
  res.add("kern.conv1d_row_ns", micro.conv1d_row_ns, "ns");
  res.add("kern.conv1d_row_flop_per_call", 2.0 * 7 * 90, "count");
  res.add("kern.conv1d_row_bytes_per_call", 4.0 * (180 + 7 + 2 * 90), "B");
  res.add("kern.noise_projection_ns", micro.noise_projection_ns, "ns");
  // Per (bin, noise vector): a 4-term complex dot product (8 flop each),
  // its squared magnitude (3) and the accumulation into the bin (1).
  res.add("kern.noise_projection_flop_per_call", 180.0 * 2 * (4 * 8 + 3 + 1), "count");
  res.add("kern.noise_projection_bytes_per_call", 16.0 * (2 * 4 + 180 * 4) + 8.0 * 180, "B");

  // obs: registry counter add and span record, the per-event costs the
  // serving path pays with metrics on, alone and with 3 threads contending.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto per_op_ns = [](int threads, int ops, auto op) {
    std::vector<double> ns(static_cast<std::size_t>(threads));
    const auto body = [&](int t) {
      const double t0 = now_s();
      for (int i = 0; i < ops; ++i) op();
      ns[static_cast<std::size_t>(t)] = (now_s() - t0) * 1e9 / ops;
    };
    if (threads == 1) {
      body(0);
    } else {
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) pool.emplace_back(body, t);
      for (auto& th : pool) th.join();
    }
    return median(ns);
  };
  const auto counter_add = [] { obs::registry().counter("perfbench.probe").add(); };
  const auto span_record = [] { obs::ScopedSpan span("perfbench.probe_span"); };
  {
    Scope span("obs.micro");
    res.add("obs.counter_add_ns", per_op_ns(1, 200000, counter_add), "ns");
    res.add("obs.counter_add_ns_3t", per_op_ns(3, 100000, counter_add), "ns");
    res.add("obs.span_ns", per_op_ns(1, 100000, span_record), "ns");
    res.add("obs.span_ns_3t", per_op_ns(3, 50000, span_record), "ns");
  }
  obs::set_enabled(was_enabled);
}

void add_replay_metrics(const ReplayCounts& counts, Result& res) {
  const double reports = static_cast<double>(std::max<std::uint64_t>(counts.reports, 1));
  res.add("proto.feed_ns_per_report", tracer().total_ns("proto.feed") / reports, "ns");
  res.add("proto.rejected", static_cast<double>(counts.rejected), "count");
  res.check(counts.rejected == 0,
            "wire parser rejected " + std::to_string(counts.rejected) + " frames/records");
  res.add("serve.assemble_ns_per_report", tracer().total_ns("serve.assemble") / reports, "ns");
  for (const char* stage : {"covariance", "eig", "music", "periodogram"}) {
    const std::string span = std::string("dsp.") + stage;
    res.add(span + "_ns", per_call(span), "ns");
    res.add(span + "_calls", static_cast<double>(tracer().count(span)), "count");
  }
}

}  // namespace perfbench
