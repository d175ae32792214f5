#include "serve/service.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace m2ai::serve {

Service::Service(ServeConfig serve, core::PipelineConfig pipeline,
                 std::unique_ptr<core::M2AINetwork> network)
    : serve_(serve), pipeline_(pipeline), network_(std::move(network)) {
  if (serve_.dsp_workers < 1) {
    throw std::invalid_argument("Service: dsp_workers must be >= 1");
  }
  if (network_ == nullptr) {
    throw std::invalid_argument("Service: network must not be null");
  }
  sequence_frames_ = serve_.sequence_frames > 0 ? serve_.sequence_frames
                                                : pipeline_.windows_per_sample;
  if (sequence_frames_ < 1) {
    throw std::invalid_argument("Service: sequence_frames must be >= 1");
  }
  // Built here, not in start(): a Worker holds wake epochs (not movable),
  // and offer() may notify a worker's epoch before start().
  workers_ = std::vector<Worker>(static_cast<std::size_t>(serve_.dsp_workers));
}

Service::~Service() {
  try {
    finish();
  } catch (...) {
    // Destructor must not throw; finish() only throws on logic errors that
    // would already have surfaced in normal use.
  }
}

int Service::num_tags() const {
  return pipeline_.num_persons * pipeline_.tags_per_person;
}

int Service::add_stream(const dsp::PhaseCalibrator* calibrator, double t_begin) {
  if (started_) {
    throw std::logic_error("Service::add_stream: call before start()");
  }
  auto stream = std::make_unique<Stream>();
  stream->assembler = std::make_unique<StreamAssembler>(pipeline_, calibrator,
                                                        num_tags(), t_begin);
  stream->ingest =
      std::make_unique<par::SpscQueue<StampedReport>>(serve_.ingest_capacity);
  streams_.push_back(std::move(stream));
  return static_cast<int>(streams_.size()) - 1;
}

void Service::start() {
  if (started_) throw std::logic_error("Service::start: already started");
  // finish() before start() ends the service for good: threads started now
  // would never be joined (finish() is idempotent), and destroying a
  // joinable std::thread terminates the process.
  if (finished_) throw std::logic_error("Service::start: already finished");
  started_ = true;
  auto& reg = obs::registry();
  frames_counter_ = &reg.counter("serve.frames");
  predictions_counter_ = &reg.counter("serve.predictions");
  e2e_ = &reg.histogram("serve.e2e_ms");
  // Every worker but the last runs a clone; the last takes the network.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w].network = w + 1 < workers_.size() ? network_->clone() : std::move(network_);
  }
  dsp_threads_.reserve(workers_.size());
  for (int w = 0; w < serve_.dsp_workers; ++w) {
    dsp_threads_.emplace_back([this, w] { dsp_loop(w); });
  }
}

bool Service::offer(int stream, const sim::TagReport& report) {
  Stream& s = *streams_[static_cast<std::size_t>(stream)];
  if (!s.ingest->try_push(StampedReport{report, obs::timeline_now_ns()})) {
    return false;
  }
  workers_[static_cast<std::size_t>(stream % serve_.dsp_workers)].work.notify();
  return true;
}

void Service::push(int stream, const sim::TagReport& report) {
  par::WakeEpoch& space = streams_[static_cast<std::size_t>(stream)]->space;
  for (;;) {
    const std::uint32_t seen = space.load();  // before the attempt: see wake_epoch.hpp
    if (offer(stream, report)) return;
    space.wait(seen);
  }
}

void Service::push_bytes(int stream, const std::uint8_t* data, std::size_t n) {
  Stream& s = *streams_[static_cast<std::size_t>(stream)];
  s.parse_buf.clear();
  s.parser.feed(data, n, s.parse_buf);
  for (const sim::TagReport& report : s.parse_buf) push(stream, report);
}

void Service::finish() {
  if (!started_ || finished_) {
    finished_ = true;
    return;
  }
  finished_ = true;
  for (auto& s : streams_) s->producer_done.store(true, std::memory_order_release);
  for (Worker& w : workers_) w.work.notify();
  for (auto& t : dsp_threads_) t.join();
  // Producers are done (finish() contract), so the wire parsers are safe to
  // close from here: a buffered partial frame becomes truncated_bytes.
  for (auto& s : streams_) s->parser.finish();

  // Export the aggregate as serve.* gauges and proto.* counters so every
  // drop in the ingest path — late, invalid, or rejected on the wire — is
  // visible in the metrics report, not just in per-call stats() snapshots.
  const ServiceStats st = stats();
  auto& reg = obs::registry();
  reg.gauge("serve.reports").set(static_cast<double>(st.reports));
  reg.gauge("serve.late_dropped").set(static_cast<double>(st.late_dropped));
  reg.gauge("serve.invalid_dropped").set(static_cast<double>(st.invalid_dropped));
  reg.gauge("serve.snapshots").set(static_cast<double>(st.snapshots));
  reg.gauge("serve.frames").set(static_cast<double>(st.frames));
  reg.gauge("serve.predictions_total").set(static_cast<double>(st.predictions));
  proto::publish_stats(st.wire);
}

const std::vector<Prediction>& Service::predictions(int stream) const {
  return streams_[static_cast<std::size_t>(stream)]->predictions;
}

ServiceStats Service::stats() const {
  ServiceStats st;
  for (const auto& s : streams_) {
    // Fold every assembler field — a counter that exists per stream but is
    // dropped here would make its rejects invisible end to end.
    const AssemblerStats& a = s->assembler->stats();
    st.reports += a.reports;
    st.late_dropped += a.late_dropped;
    st.invalid_dropped += a.invalid_dropped;
    st.snapshots += a.snapshots;
    st.wire.add(s->parser.stats());
  }
  st.frames = frames_total_.load(std::memory_order_relaxed);
  st.predictions = predictions_total_.load(std::memory_order_relaxed);
  st.batches = st.predictions;
  return st;
}

void Service::on_frames(Stream& s, Worker& worker,
                        const std::vector<core::SpectrumFrame>& frames,
                        std::uint64_t enqueue_ns) {
  const auto seq_len = static_cast<std::size_t>(sequence_frames_);
  for (const core::SpectrumFrame& frame : frames) {
    // The CNN runs here, once per frame; every window holding the frame
    // reuses its features.
    s.recent.push_back(worker.network->frame_features(frame));
    if (s.recent.size() > seq_len) s.recent.erase(s.recent.begin());
    ++s.frames_closed;
    frames_total_.fetch_add(1, std::memory_order_relaxed);
    frames_counter_->add();
    if (s.recent.size() == seq_len) predict_window(s, worker, enqueue_ns);
  }
}

void Service::predict_window(Stream& s, Worker& worker, std::uint64_t enqueue_ns) {
  int label = 0;
  {
    obs::ScopedSpan span("serve.predict");
    label = core::M2AINetwork::argmax_class(
        worker.network->predict_proba_from_features(s.recent));
  }
  const double latency_ms =
      static_cast<double>(obs::timeline_now_ns() - enqueue_ns) / 1e6;
  // record_always: ServiceStats and the bench summary need the latency
  // distribution even when the obs switch is off.
  e2e_->record_always(latency_ms);
  predictions_counter_->add();
  predictions_total_.fetch_add(1, std::memory_order_relaxed);
  s.predictions.push_back(Prediction{s.frames_closed - 1, label, latency_ms});
}

void Service::dsp_loop(int worker) {
  obs::register_thread_name("serve-dsp-" + std::to_string(worker));
  Worker& self = workers_[static_cast<std::size_t>(worker)];
  const auto owns = [this, worker](std::size_t i) {
    return static_cast<int>(i % static_cast<std::size_t>(serve_.dsp_workers)) ==
           worker;
  };
  for (;;) {
    // Read before the scan, so a report pushed after the scan looked at its
    // ring still wakes the wait below (wake_epoch.hpp).
    const std::uint32_t seen = self.work.load();
    bool all_done = true;
    bool idle = true;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (!owns(i)) continue;
      Stream& s = *streams_[i];
      StampedReport sr;
      // Bounded drain per visit keeps one hot stream from starving the
      // worker's other streams.
      int budget = 256;
      for (; budget > 0 && s.ingest->try_pop(sr); --budget) {
        on_frames(s, self, s.assembler->ingest(sr.report), sr.enqueue_ns);
      }
      if (budget < 256) {
        idle = false;
        s.space.notify();  // a producer may be waiting in push()
      }
      if (!(s.producer_done.load(std::memory_order_acquire) &&
            s.ingest->empty_approx())) {
        all_done = false;
      }
    }
    if (all_done) break;
    if (idle) self.work.wait(seen);
  }
  // End of every owned stream: close the in-progress window, and if a stream
  // never accumulated a full sequence, predict once on what it has.
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    if (!owns(i)) continue;
    Stream& s = *streams_[i];
    const std::uint64_t now = obs::timeline_now_ns();
    on_frames(s, self, s.assembler->flush(), now);
    if (s.predictions.empty() && !s.recent.empty()) predict_window(s, self, now);
  }
}

}  // namespace m2ai::serve
