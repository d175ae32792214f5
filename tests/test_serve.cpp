// Streaming serve layer:
//   * SpscQueue — FIFO integrity single-threaded and under a concurrent
//     producer/consumer (the TSan CI job runs these for the race contract);
//   * WakeEpoch — no lost wake-up over 100k ping-pong hand-offs;
//   * IncrementalCovariance — bitwise equality with the batch
//     sample_covariance;
//   * StreamAssembler — frames bitwise identical to core::FrameBuilder over
//     a real simulated report stream, for the spectral and the ablation
//     feature modes;
//   * Service — end-to-end determinism: N streams replaying a sample give
//     the offline prediction for that sample, independent of stream count
//     and worker count; every sliding window of a long stream gives the
//     offline prediction for its T-frame slice, also when reports trickle in
//     one at a time; an idle service sleeps; it starts one thread per DSP
//     worker; and its start/finish lifecycle.
//
// A lost wake-up leaves a thread asleep for good, so the tests that could
// meet one run under a Watchdog, which turns the hang into a failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <complex>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "kern/backend.hpp"
#include "obs/metrics.hpp"
#include "par/spsc_queue.hpp"
#include "par/wake_epoch.hpp"
#include "serve/assembler.hpp"
#include "serve/incremental.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace {

using m2ai::dsp::cdouble;

// Generous even under TSan; a healthy run of any guarded scope takes ~1 s.
constexpr std::chrono::seconds kWatchdogLimit{60};

// Aborts the test binary when the scope it guards outlives `limit`.
class Watchdog {
 public:
  Watchdog(const char* what, std::chrono::seconds limit)
      : thread_([this, what, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "%s: still running after %lld s (lost wake-up?)\n",
                         what, static_cast<long long>(limit.count()));
            std::abort();
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::vector<std::vector<cdouble>> random_snapshots(std::size_t count,
                                                   std::size_t n,
                                                   std::uint64_t seed) {
  m2ai::util::Rng rng(seed);
  std::vector<std::vector<cdouble>> out(count);
  for (auto& snap : out) {
    snap.resize(n);
    for (auto& x : snap) {
      x = cdouble{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    }
  }
  return out;
}

void expect_bitwise_equal(const m2ai::dsp::CMatrix& a, const m2ai::dsp::CMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j).real(), b(i, j).real()) << "(" << i << "," << j << ")";
      EXPECT_EQ(a(i, j).imag(), b(i, j).imag()) << "(" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------- SpscQueue

TEST(SpscQueue, RoundsCapacityUpToPowerOfTwo) {
  m2ai::par::SpscQueue<int> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  m2ai::par::SpscQueue<int> q2(1);
  EXPECT_EQ(q2.capacity(), 2u);
}

TEST(SpscQueue, FifoAndFullEmptySingleThreaded) {
  m2ai::par::SpscQueue<int> q(4);
  int out = -1;
  EXPECT_FALSE(q.try_pop(out));
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(q.try_pop(out));
  // Wrap-around across the index mask.
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(q.try_push(round));
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, round);
  }
}

TEST(SpscQueue, ConcurrentProducerConsumerKeepsOrderAndCount) {
  constexpr int kItems = 200000;
  m2ai::par::SpscQueue<int> q(256);
  std::atomic<bool> start{false};
  std::uint64_t sum = 0;
  int received = 0;
  std::thread consumer([&] {
    while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
    int expected = 0;
    int v;
    while (expected < kItems) {
      if (q.try_pop(v)) {
        ASSERT_EQ(v, expected);  // strict FIFO
        sum += static_cast<std::uint64_t>(v);
        ++expected;
      } else {
        std::this_thread::yield();
      }
    }
    received = expected;
  });
  std::thread producer([&] {
    start.store(true, std::memory_order_release);
    for (int i = 0; i < kItems; ++i) {
      while (!q.try_push(int(i))) std::this_thread::yield();
    }
  });
  producer.join();
  consumer.join();
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2);
  EXPECT_TRUE(q.empty_approx());
}

TEST(SpscQueue, MoveOnlyPayload) {
  m2ai::par::SpscQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(q.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

// ---------------------------------------------------------------- WakeEpoch

TEST(WakeEpoch, WaitReturnsAtOnceAfterANotify) {
  m2ai::par::WakeEpoch wake;
  const std::uint32_t seen = wake.load();
  wake.notify();
  EXPECT_NE(wake.load(), seen);
  wake.wait(seen);  // must not block: the epoch moved past `seen`
}

// Two threads hand a token back and forth, each sleeping on its own epoch
// until the other has moved the token. Every hand-off is one
// publish/notify against one load/check/wait, so a single lost wake-up
// leaves both threads asleep and the watchdog fails the test.
TEST(WakeEpoch, PingPongNeverLosesAWakeUp) {
  constexpr int kRoundTrips = 100000;
  m2ai::par::WakeEpoch ping_wake;
  m2ai::par::WakeEpoch pong_wake;
  std::atomic<int> ping{0};
  std::atomic<int> pong{0};
  const auto await = [](m2ai::par::WakeEpoch& wake, const std::atomic<int>& value,
                        int want) {
    for (;;) {
      const std::uint32_t seen = wake.load();
      if (value.load(std::memory_order_acquire) == want) return;
      wake.wait(seen);
    }
  };
  Watchdog watchdog("WakeEpoch ping-pong", kWatchdogLimit);
  std::thread responder([&] {
    for (int i = 1; i <= kRoundTrips; ++i) {
      await(ping_wake, ping, i);
      pong.store(i, std::memory_order_release);
      pong_wake.notify();
    }
  });
  for (int i = 1; i <= kRoundTrips; ++i) {
    ping.store(i, std::memory_order_release);
    ping_wake.notify();
    await(pong_wake, pong, i);
  }
  responder.join();
  EXPECT_EQ(pong.load(), kRoundTrips);
}

// ------------------------------------------------- IncrementalCovariance

TEST(IncrementalCovariance, PushOnlyBitwiseMatchesBatch) {
  const auto snaps = random_snapshots(40, 4, 0xc0f1);
  m2ai::dsp::CovarianceOptions opts;  // defaults: FB on, loading on
  m2ai::serve::IncrementalCovariance inc(4);
  for (const auto& s : snaps) inc.push(s);
  expect_bitwise_equal(inc.covariance(opts),
                       m2ai::dsp::sample_covariance(snaps, opts));
  // Smoothing subarray exercises the sliced finalization.
  opts.smoothing_subarray = 3;
  expect_bitwise_equal(inc.covariance(opts),
                       m2ai::dsp::sample_covariance(snaps, opts));
}

// --------------------------------------------------------- StreamAssembler

class ServeAssembler : public ::testing::Test {
 protected:
  // One real simulated sample: reports + calibrator + the batch frames.
  void run_mode(m2ai::core::FeatureMode mode) {
    m2ai::core::PipelineConfig config;
    config.windows_per_sample = 6;  // keep the sim cheap
    config.feature_mode = mode;
    m2ai::core::Pipeline pipeline(config, 917);
    const m2ai::core::SampleRun run =
        pipeline.run_sample(3, pipeline.fork_sample_rng());
    const double t0 = config.bootstrap_sec + 0.5 * config.window_sec;

    m2ai::serve::StreamAssembler assembler(config, run.calibrator.get(),
                                           pipeline.num_tags(), t0);
    std::vector<m2ai::core::SpectrumFrame> streamed;
    for (const auto& report : run.reports) {
      for (auto& f : assembler.ingest(report)) streamed.push_back(std::move(f));
    }
    for (auto& f : assembler.flush()) streamed.push_back(std::move(f));

    ASSERT_EQ(streamed.size(), run.sample.frames.size());
    for (std::size_t w = 0; w < streamed.size(); ++w) {
      const auto& a = streamed[w];
      const auto& b = run.sample.frames[w];
      ASSERT_EQ(a.has_pseudo, b.has_pseudo);
      ASSERT_EQ(a.has_aux, b.has_aux);
      if (a.has_pseudo) {
        ASSERT_EQ(a.pseudo.size(), b.pseudo.size());
        for (std::size_t i = 0; i < a.pseudo.size(); ++i) {
          // Bitwise: the incremental covariance path must not perturb a
          // single mantissa bit relative to the batch FrameBuilder.
          EXPECT_EQ(a.pseudo.data()[i], b.pseudo.data()[i])
              << "pseudo window " << w << " flat index " << i;
        }
      }
      if (a.has_aux) {
        ASSERT_EQ(a.aux.size(), b.aux.size());
        for (std::size_t i = 0; i < a.aux.size(); ++i) {
          EXPECT_EQ(a.aux.data()[i], b.aux.data()[i])
              << "aux window " << w << " flat index " << i;
        }
      }
    }
    EXPECT_EQ(assembler.stats().frames, streamed.size());
    EXPECT_EQ(assembler.stats().late_dropped, 0u);
  }
};

TEST_F(ServeAssembler, BitwiseMatchesFrameBuilder) {
  run_mode(m2ai::core::FeatureMode::kM2AI);
}

TEST_F(ServeAssembler, BitwiseMatchesFrameBuilderMusicOnly) {
  run_mode(m2ai::core::FeatureMode::kMusicOnly);
}

TEST_F(ServeAssembler, BitwiseMatchesFrameBuilderPhaseOnly) {
  run_mode(m2ai::core::FeatureMode::kPhaseOnly);
}

TEST_F(ServeAssembler, BitwiseMatchesFrameBuilderRssiOnly) {
  run_mode(m2ai::core::FeatureMode::kRssiOnly);
}

TEST(ServeAssemblerEdge, LateReportsDropAndEmptyWindowsCloseAsZero) {
  m2ai::core::PipelineConfig config;
  m2ai::serve::StreamAssembler assembler(config, nullptr, 1, /*t_begin=*/0.0);

  m2ai::sim::TagReport r;
  r.tag_id = 1;
  r.antenna = 0;
  r.rssi_dbm = -50.0;
  r.time_sec = 0.1;  // window 0
  EXPECT_TRUE(assembler.ingest(r).empty());

  r.time_sec = 1.0;  // window 2: closes windows 0 and 1 (1 is empty)
  const auto closed = assembler.ingest(r);
  ASSERT_EQ(closed.size(), 2u);
  for (const auto& frame : closed) {
    ASSERT_TRUE(frame.has_pseudo);
    for (std::size_t i = 0; i < frame.pseudo.size(); ++i) {
      EXPECT_EQ(frame.pseudo.data()[i], 0.0f);  // < 2 snapshots -> zero row
    }
  }

  r.time_sec = 0.2;  // back into the already-closed window 0
  EXPECT_TRUE(assembler.ingest(r).empty());
  EXPECT_EQ(assembler.stats().late_dropped, 1u);
  EXPECT_EQ(assembler.window_index(), 2);
}

// ------------------------------------------------------------------ Service

TEST(ServeService, DeterministicAcrossStreamCountsAndMatchesOffline) {
  m2ai::core::PipelineConfig config;
  config.windows_per_sample = 4;  // sequence length T = 4
  m2ai::core::Pipeline pipeline(config, 2024);
  const double t0 = config.bootstrap_sec + 0.5 * config.window_sec;

  // Two distinct source samples; streams alternate between them.
  std::vector<m2ai::core::SampleRun> runs;
  runs.push_back(pipeline.run_sample(1, pipeline.fork_sample_rng()));
  runs.push_back(pipeline.run_sample(5, pipeline.fork_sample_rng()));

  m2ai::core::ModelConfig model_config;
  m2ai::core::M2AINetwork reference(model_config, config.feature_mode,
                                    pipeline.num_tags(), config.num_antennas, 12);
  std::vector<int> offline;
  for (const auto& run : runs) offline.push_back(reference.predict(run.sample.frames));

  for (const int num_streams : {1, 64}) {
    m2ai::serve::ServeConfig serve_config;
    serve_config.dsp_workers = 3;
    m2ai::serve::Service service(serve_config, config, reference.clone());
    for (int s = 0; s < num_streams; ++s) {
      service.add_stream(runs[static_cast<std::size_t>(s % 2)].calibrator.get(), t0);
    }
    service.start();
    // One producer per batch of streams; each stream replays its sample.
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        for (int s = p; s < num_streams; s += 2) {
          for (const auto& report : runs[static_cast<std::size_t>(s % 2)].reports) {
            service.push(s, report);
          }
        }
      });
    }
    for (auto& t : producers) t.join();
    service.finish();

    const m2ai::serve::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.late_dropped, 0u);
    EXPECT_EQ(stats.frames,
              static_cast<std::uint64_t>(num_streams * config.windows_per_sample));
    for (int s = 0; s < num_streams; ++s) {
      const auto& preds = service.predictions(s);
      // T frames, sequence length T: exactly one full-sequence request,
      // fired when window T-1 closed.
      ASSERT_EQ(preds.size(), 1u) << "stream " << s;
      EXPECT_EQ(preds[0].frame_index,
                static_cast<std::size_t>(config.windows_per_sample - 1));
      EXPECT_EQ(preds[0].label, offline[static_cast<std::size_t>(s % 2)])
          << "stream " << s << " of " << num_streams;
      EXPECT_GE(preds[0].latency_ms, 0.0);
    }
  }
}

// A stream longer than the sequence slides its window: every closed window
// from the T-th on is one request over the last T frames, served from the
// per-stream feature ring (each frame featurized once, on its DSP worker).
// Every label must equal offline predict on the matching T-frame slice of
// the batch frames, at one worker and at several, and when the reports
// trickle in: one report per push with a pause after each, long enough for
// the DSP workers to fall asleep, so every report has to wake them.
TEST(ServeService, SlidingWindowsMatchOfflineSlices) {
  m2ai::core::PipelineConfig config;
  config.windows_per_sample = 9;
  constexpr int kSeq = 3;  // T: 7 sliding windows per stream
  m2ai::core::Pipeline pipeline(config, 31);
  const double t0 = config.bootstrap_sec + 0.5 * config.window_sec;

  std::vector<m2ai::core::SampleRun> runs;
  runs.push_back(pipeline.run_sample(4, pipeline.fork_sample_rng()));
  runs.push_back(pipeline.run_sample(9, pipeline.fork_sample_rng()));

  m2ai::core::ModelConfig model_config;
  m2ai::core::M2AINetwork reference(model_config, config.feature_mode,
                                    pipeline.num_tags(), config.num_antennas, 12);
  // offline[r][i]: the label of run r's frames [i - T + 1, i].
  std::vector<std::vector<int>> offline(runs.size());
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const m2ai::core::FrameSequence& frames = runs[r].sample.frames;
    ASSERT_EQ(frames.size(), static_cast<std::size_t>(config.windows_per_sample));
    offline[r].assign(frames.size(), -1);
    for (std::size_t i = kSeq - 1; i < frames.size(); ++i) {
      const m2ai::core::FrameSequence slice(frames.begin() + (i + 1 - kSeq),
                                            frames.begin() + (i + 1));
      offline[r][i] = reference.predict(slice);
    }
  }

  struct Case {
    int workers;
    bool trickle;
  };
  for (const Case c : {Case{1, false}, Case{3, false}, Case{2, true}}) {
    const int workers = c.workers;
    Watchdog watchdog("SlidingWindowsMatchOfflineSlices", kWatchdogLimit);
    m2ai::serve::ServeConfig serve_config;
    serve_config.dsp_workers = workers;
    serve_config.sequence_frames = kSeq;
    const int num_streams = 6;
    m2ai::serve::Service service(serve_config, config, reference.clone());
    for (int s = 0; s < num_streams; ++s) {
      service.add_stream(runs[static_cast<std::size_t>(s % 2)].calibrator.get(), t0);
    }
    service.start();
    // Recorded for every label, obs switch on or off; safe to poll.
    m2ai::obs::Histogram& labels = m2ai::obs::registry().histogram("serve.e2e_ms");
    const std::uint64_t labels_before = labels.snapshot().count;
    std::thread producer([&] {
      if (!c.trickle) {
        for (int s = 0; s < num_streams; ++s) {
          for (const auto& report : runs[static_cast<std::size_t>(s % 2)].reports) {
            service.push(s, report);
          }
        }
        return;
      }
      // Streams interleaved report by report, so every window of every
      // stream closes on a woken worker.
      const std::size_t longest =
          std::max(runs[0].reports.size(), runs[1].reports.size());
      for (std::size_t k = 0; k < longest; ++k) {
        for (int s = 0; s < num_streams; ++s) {
          const auto& reports = runs[static_cast<std::size_t>(s % 2)].reports;
          if (k >= reports.size()) continue;
          service.push(s, reports[k]);
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
      }
    });
    producer.join();
    if (c.trickle) {
      // Every window but each stream's last, which finish()'s flush closes,
      // must be labelled before finish() wakes anything: a report whose
      // wake-up got lost would sit in its ring until the watchdog fires.
      const auto before_flush = static_cast<std::uint64_t>(
          num_streams * (config.windows_per_sample - kSeq));
      while (labels.snapshot().count - labels_before < before_flush) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    service.finish();

    for (int s = 0; s < num_streams; ++s) {
      const std::vector<int>& want = offline[static_cast<std::size_t>(s % 2)];
      const auto& preds = service.predictions(s);
      ASSERT_EQ(preds.size(), want.size() - (kSeq - 1))
          << "stream " << s << ", " << workers << " workers"
          << (c.trickle ? ", trickle" : "");
      for (std::size_t k = 0; k < preds.size(); ++k) {
        EXPECT_EQ(preds[k].frame_index, k + kSeq - 1) << "stream " << s;
        EXPECT_EQ(preds[k].label, want[preds[k].frame_index])
            << "stream " << s << ", window " << preds[k].frame_index << ", "
            << workers << " workers" << (c.trickle ? ", trickle" : "");
      }
    }
  }
}

// End-to-end contract of the fast kernel backend: serving under
// --backend fast yields the same activity labels as the offline reference
// prediction. The fast path is epsilon-equivalent (SIMD/FMA reassociation in
// both the MUSIC projection and the NN kernels), so label equality is only
// asserted where the reference posterior's top-2 margin is comfortably wider
// than the kernel tolerance — a near-tie flipping is not a backend bug.
TEST(ServeService, FastBackendMatchesReferenceLabels) {
  if (!m2ai::kern::fast_backend_supported()) {
    GTEST_SKIP() << "CPU lacks AVX2/FMA; fast backend falls back to ref";
  }
  const m2ai::kern::BackendKind saved = m2ai::kern::active_backend_kind();

  m2ai::core::PipelineConfig config;
  config.windows_per_sample = 4;
  m2ai::core::Pipeline pipeline(config, 2024);
  const double t0 = config.bootstrap_sec + 0.5 * config.window_sec;

  std::vector<m2ai::core::SampleRun> runs;
  runs.push_back(pipeline.run_sample(1, pipeline.fork_sample_rng()));
  runs.push_back(pipeline.run_sample(5, pipeline.fork_sample_rng()));

  m2ai::core::ModelConfig model_config;
  m2ai::core::M2AINetwork reference(model_config, config.feature_mode,
                                    pipeline.num_tags(), config.num_antennas, 12);
  m2ai::kern::set_backend(m2ai::kern::BackendKind::kReference);
  std::vector<int> offline;
  std::vector<double> margin;
  for (const auto& run : runs) {
    offline.push_back(reference.predict(run.sample.frames));
    std::vector<double> proba = reference.predict_proba(run.sample.frames);
    std::sort(proba.begin(), proba.end(), std::greater<double>());
    margin.push_back(proba.size() > 1 ? proba[0] - proba[1] : 1.0);
  }

  // Enough streams that every worker predicts several of them on its own
  // network under the fast kernels.
  m2ai::kern::set_backend(m2ai::kern::BackendKind::kFast);
  const int num_streams = 16;
  m2ai::serve::ServeConfig serve_config;
  serve_config.dsp_workers = 3;
  m2ai::serve::Service service(serve_config, config, reference.clone());
  for (int s = 0; s < num_streams; ++s) {
    service.add_stream(runs[static_cast<std::size_t>(s % 2)].calibrator.get(), t0);
  }
  service.start();
  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      for (int s = p; s < num_streams; s += 2) {
        for (const auto& report : runs[static_cast<std::size_t>(s % 2)].reports) {
          service.push(s, report);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  service.finish();
  m2ai::kern::set_backend(saved);

  for (int s = 0; s < num_streams; ++s) {
    const auto& preds = service.predictions(s);
    ASSERT_EQ(preds.size(), 1u) << "stream " << s;
    if (margin[static_cast<std::size_t>(s % 2)] < 1e-3) continue;
    EXPECT_EQ(preds[0].label, offline[static_cast<std::size_t>(s % 2)])
        << "stream " << s;
  }
}

// Wrong producer thread per stream is a race; this test stays within the
// contract but hammers the full pipeline with more streams than workers so
// ownership partitioning, backpressure, and shutdown interleave under TSan.
TEST(ServeService, ManyStreamsFewWorkersDrainCleanly) {
  m2ai::core::PipelineConfig config;
  config.windows_per_sample = 3;
  m2ai::core::Pipeline pipeline(config, 77);
  const m2ai::core::SampleRun run =
      pipeline.run_sample(2, pipeline.fork_sample_rng());
  const double t0 = config.bootstrap_sec + 0.5 * config.window_sec;

  m2ai::core::ModelConfig model_config;
  auto network = std::make_unique<m2ai::core::M2AINetwork>(
      model_config, config.feature_mode, pipeline.num_tags(),
      config.num_antennas, 12);

  m2ai::serve::ServeConfig serve_config;
  serve_config.dsp_workers = 2;
  serve_config.ingest_capacity = 64;  // tiny rings force backpressure
  const int num_streams = 9;
  m2ai::serve::Service service(serve_config, config, std::move(network));
  for (int s = 0; s < num_streams; ++s) {
    service.add_stream(run.calibrator.get(), t0);
  }
  service.start();
  std::vector<std::thread> producers;
  for (int s = 0; s < num_streams; ++s) {
    producers.emplace_back([&, s] {
      for (const auto& report : run.reports) service.push(s, report);
    });
  }
  for (auto& t : producers) t.join();
  service.finish();

  const m2ai::serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.reports,
            static_cast<std::uint64_t>(num_streams) * run.reports.size());
  EXPECT_EQ(stats.frames,
            static_cast<std::uint64_t>(num_streams * config.windows_per_sample));
  EXPECT_EQ(stats.predictions, static_cast<std::uint64_t>(num_streams));
  for (int s = 0; s < num_streams; ++s) {
    EXPECT_EQ(service.predictions(s).size(), 1u);
  }
}

// An idle service sleeps: with streams registered and no report arriving,
// its DSP workers block on their wake epochs. Spinning, they would burn
// about one core each.
TEST(ServeService, IdleServiceSleeps) {
  m2ai::core::PipelineConfig config;
  m2ai::core::ModelConfig model_config;
  auto network = std::make_unique<m2ai::core::M2AINetwork>(
      model_config, config.feature_mode, config.num_persons * config.tags_per_person,
      config.num_antennas, 12);
  m2ai::serve::ServeConfig serve_config;
  serve_config.dsp_workers = 2;
  m2ai::serve::Service service(serve_config, config, std::move(network));
  for (int s = 0; s < 4; ++s) service.add_stream(nullptr, 0.0);
  service.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // threads settle

  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = process_cpu_s();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_s = process_cpu_s() - cpu0;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0).count();
  {
    Watchdog watchdog("IdleServiceSleeps finish", kWatchdogLimit);
    service.finish();
  }
  EXPECT_LT(cpu_s / wall_s, 0.10) << cpu_s << " CPU s over " << wall_s << " s idle";
}

// Serving runs on one thread kind: start() adds exactly one thread per DSP
// worker, and finish() joins every one of them.
TEST(ServeService, StartsOneThreadPerWorker) {
  if (!std::filesystem::is_directory("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task";
  }
  const auto threads = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<int>(std::distance(begin(tasks), end(tasks)));
  };
  m2ai::core::PipelineConfig config;
  m2ai::core::ModelConfig model_config;
  for (const int workers : {1, 3}) {
    auto network = std::make_unique<m2ai::core::M2AINetwork>(
        model_config, config.feature_mode, config.num_persons * config.tags_per_person,
        config.num_antennas, 12);
    m2ai::serve::ServeConfig serve_config;
    serve_config.dsp_workers = workers;
    m2ai::serve::Service service(serve_config, config, std::move(network));
    for (int s = 0; s < 4; ++s) service.add_stream(nullptr, 0.0);
    const int before = threads();
    service.start();
    EXPECT_EQ(threads() - before, workers) << workers << " workers";
    {
      Watchdog watchdog("StartsOneThreadPerWorker finish", kWatchdogLimit);
      service.finish();
    }
    // A joined thread can stay listed for a moment after join() returns.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (threads() != before && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(threads(), before) << workers << " workers";
  }
}

// finish() before start() ends the service for good. start() must refuse:
// threads spawned now would never be joined (finish() is idempotent), and
// the destructor would then destroy a joinable std::thread, which calls
// std::terminate.
TEST(ServeService, StartAfterFinishThrows) {
  m2ai::core::PipelineConfig config;
  m2ai::core::ModelConfig model_config;
  auto network = std::make_unique<m2ai::core::M2AINetwork>(
      model_config, config.feature_mode, config.num_persons * config.tags_per_person,
      config.num_antennas, 12);
  m2ai::serve::Service service(m2ai::serve::ServeConfig{}, config, std::move(network));
  service.add_stream(nullptr, 0.0);
  service.finish();
  EXPECT_THROW(service.start(), std::logic_error);
}

}  // namespace
