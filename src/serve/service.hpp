// Online inference service: many report streams -> one M2AINetwork.
//
// Topology (the ingest channels are bounded lock-free SPSC rings,
// par/spsc_queue):
//
//   producer threads           DSP workers
//   (one per stream) --ring->  (stream s owned by worker s % K: assembly,
//                               CNN per frame, LSTM stack + head per window)
//
// Each DSP worker owns a disjoint set of streams and its own clone of the
// network: it drains their ingest rings, feeds the per-stream
// StreamAssembler (incremental covariance + frame assembly), runs the
// per-frame CNN (M2AINetwork::frame_features: the one-frame case of the
// frame-minor batch that offline predict runs per sequence, bitwise equal
// to that sequence's column) once on every closed frame, keeps the
// features of the last T frames, and — every time a window closes with a
// full sequence available — runs the LSTM stack and the head over those T
// feature vectors (predict_proba_from_features) and appends the label to
// the stream's predictions. One thread kind serves hundreds of streams
// without a lock anywhere on the steady-state path.
//
// Determinism: a stream's predictions depend only on its own report
// sequence — assembly is per-stream state, a frame's features depend on that
// frame alone, and a window's label depends on that window's T feature
// vectors alone, computed on a network whose weights equal the service's — so
// the labels for N streams replaying the same reports are identical at any
// worker count or stream count, and equal offline M2AINetwork::predict on
// the same frames (ServeService.DeterministicAcrossStreamCountsAndMatchesOffline,
// ServeService.SlidingWindowsMatchOfflineSlices).
//
// Latency accounting: every report is stamped at enqueue; a prediction's
// end-to-end latency runs from the stamp of the report that closed its
// window to the moment the worker's predict call returns, recorded in the
// "serve.e2e_ms" histogram (recorded even when the obs switch is off, so
// ServiceStats is always meaningful).
//
// Idle threads sleep: a DSP worker waiting for reports and a producer
// waiting for space on a full ring each block on a par::WakeEpoch that the
// thread on the other end of the ring bumps, so an idle service uses no CPU
// (DESIGN.md §9).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "obs/metrics.hpp"
#include "par/spsc_queue.hpp"
#include "par/wake_epoch.hpp"
#include "proto/parser.hpp"
#include "serve/assembler.hpp"

namespace m2ai::serve {

struct ServeConfig {
  int dsp_workers = 3;
  // Frames per inference sequence; 0 uses pipeline.windows_per_sample.
  int sequence_frames = 0;
  std::size_t ingest_capacity = 4096;  // per-stream report ring
};

struct Prediction {
  std::size_t frame_index = 0;  // window index whose close triggered this
  int label = 0;
  double latency_ms = 0.0;
};

// Aggregate over every per-stream assembler (all AssemblerStats fields — a
// reject that is counted per stream but lost in the aggregate is still a
// silent drop end to end) plus the frame and prediction totals and, when
// byte ingest is used, the per-stream wire parsers.
struct ServiceStats {
  std::uint64_t reports = 0;
  std::uint64_t late_dropped = 0;
  std::uint64_t invalid_dropped = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t frames = 0;
  std::uint64_t predictions = 0;
  // Prediction calls: one per prediction, so always equal to predictions.
  std::uint64_t batches = 0;
  // Wire ingest (push_bytes): summed proto::FrameParser stats. All zero when
  // every stream pushed in-memory reports.
  proto::ParserStats wire;
};

class Service {
 public:
  // Takes ownership of the network; `pipeline` must match the configuration
  // the reports were produced under (window_sec, antennas, tags, features).
  Service(ServeConfig serve, core::PipelineConfig pipeline,
          std::unique_ptr<core::M2AINetwork> network);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // Register a stream before start(). `calibrator` may be null and must
  // outlive the service; `t_begin` anchors the stream's window 0. Returns
  // the stream id used by offer()/push()/predictions().
  int add_stream(const dsp::PhaseCalibrator* calibrator, double t_begin);

  int num_tags() const;

  void start();

  // Non-blocking ingest; false when the stream's ring is full. At most one
  // producer thread per stream (SPSC contract).
  bool offer(int stream, const sim::TagReport& report);
  // Blocking ingest: on a full ring, sleeps until the stream's DSP worker
  // has popped from it.
  void push(int stream, const sim::TagReport& report);

  // Wire ingest: feed a raw reader byte chunk (JRD-4035-style frames, see
  // src/proto) through the stream's FrameParser and push every decoded
  // report (blocking, like push()). Parser state is producer-private — the
  // same one-producer-per-stream contract as offer()/push(); mixing
  // push_bytes and push on one stream is allowed but chunk/report order is
  // the caller's problem. Malformed bytes never throw; they land in the
  // parser's per-cause counters, surfaced via stats().wire after finish().
  void push_bytes(int stream, const std::uint8_t* data, std::size_t n);

  // Ends ingest: flushes every assembler, drains all queues, joins all
  // threads. Call after every producer has stopped pushing. Idempotent.
  void finish();

  // Per-stream predictions in frame order. Stable only after finish().
  const std::vector<Prediction>& predictions(int stream) const;

  // Aggregate counters. Exact after finish(); a racy snapshot before.
  ServiceStats stats() const;

 private:
  struct StampedReport {
    sim::TagReport report;
    std::uint64_t enqueue_ns = 0;
  };
  struct Worker {
    std::unique_ptr<core::M2AINetwork> network;  // runs every NN stage
    par::WakeEpoch work;  // bumped by offer() on owned streams, finish()
  };
  struct Stream {
    std::unique_ptr<StreamAssembler> assembler;
    std::unique_ptr<par::SpscQueue<StampedReport>> ingest;
    // Wire ingest state, touched only by the stream's producer thread until
    // finish() (which runs after all producers stopped).
    proto::FrameParser parser;
    std::vector<sim::TagReport> parse_buf;
    std::atomic<bool> producer_done{false};
    par::WakeEpoch space;  // bumped by the DSP worker after popping reports
    // DSP-worker-private until finish(): the features of the last (at most
    // T) closed frames, oldest first, and the predictions made so far.
    core::FeatureSequence recent;
    std::size_t frames_closed = 0;
    std::vector<Prediction> predictions;
  };

  void dsp_loop(int worker);
  void on_frames(Stream& s, Worker& worker,
                 const std::vector<core::SpectrumFrame>& frames,
                 std::uint64_t enqueue_ns);
  void predict_window(Stream& s, Worker& worker, std::uint64_t enqueue_ns);

  ServeConfig serve_;
  core::PipelineConfig pipeline_;
  std::unique_ptr<core::M2AINetwork> network_;
  int sequence_frames_;

  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<Worker> workers_;
  std::vector<std::thread> dsp_threads_;
  bool started_ = false;
  bool finished_ = false;
  // Registry handles, resolved once in start().
  obs::Counter* frames_counter_ = nullptr;       // "serve.frames"
  obs::Counter* predictions_counter_ = nullptr;  // "serve.predictions"
  obs::Histogram* e2e_ = nullptr;                // "serve.e2e_ms"

  std::atomic<std::uint64_t> frames_total_{0};
  std::atomic<std::uint64_t> predictions_total_{0};
};

}  // namespace m2ai::serve
