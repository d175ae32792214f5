#include "serve_bench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <queue>
#include <thread>

#include "kern/backend.hpp"
#include "obs/metrics.hpp"
#include "par/parallel_for.hpp"
#include "proto/parser.hpp"
#include "proto/wire.hpp"

namespace perfbench {

using namespace m2ai;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
// Streams whose labels the saturate run re-derives offline (seed-chosen).
constexpr int kSaturateCheckedStreams = 8;
// Threads the offline reference check may use once the service is stopped.
constexpr int kCheckThreads = 4;
// Set-ups per run, half before the measured phase and half after it, so the
// halves meet the host at moments ~30 s apart; the median is reported.
constexpr int kSetups = 10;
constexpr double kBlockSeconds = 1.0;
constexpr auto kRefillPeriod = std::chrono::microseconds(100);
constexpr double kLatencyBlockSeconds = 4.0;

void sleep_until_s(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t))));
}

// What the generator did on one stream.
struct StreamLog {
  std::size_t sent = 0;           // reports counted as sent (next index)
  std::size_t measured_from = 0;  // first report of the measured phase
  long last_window = -1;          // window of the last sent report
  // Per window closed by a measured-phase report: the closing report's due
  // time and the return time of the call that handed it over (s).
  std::vector<double> closer_due;
  std::vector<double> closer_ret;

  void note_report(long w, double due, double ret) {
    if (w > last_window && last_window >= 0) {
      if (closer_due.size() < static_cast<std::size_t>(w)) {
        closer_due.resize(static_cast<std::size_t>(w), kNaN);
        closer_ret.resize(static_cast<std::size_t>(w), kNaN);
      }
      for (long c = last_window; c < w; ++c) {
        closer_due[static_cast<std::size_t>(c)] = due;
        closer_ret[static_cast<std::size_t>(c)] = ret;
      }
    }
    last_window = std::max(last_window, w);
  }
};

// Windows the stream's assembler closed: every window up to the last sent
// report's (finish() flushes the one in progress).
long windows_closed(const Fleet& fleet, int s, const StreamLog& log) {
  return log.sent == 0 ? 0 : fleet.window(s, log.sent - 1) + 1;
}

std::vector<std::vector<serve::Prediction>> collect_predictions(
    const serve::Service& service, int num_streams, const std::string& inject) {
  std::vector<std::vector<serve::Prediction>> preds(static_cast<std::size_t>(num_streams));
  for (int s = 0; s < num_streams; ++s) preds[static_cast<std::size_t>(s)] = service.predictions(s);
  // Self-test faults, applied to the benchmark's copy of the output.
  auto& first = preds.front();
  if (inject == "flip-label" && !first.empty()) {
    first[first.size() / 2].label = (first[first.size() / 2].label + 1) % kNumClasses;
  }
  if (inject == "drop-prediction" && !first.empty()) {
    first.erase(first.begin() + static_cast<std::ptrdiff_t>(first.size() / 2));
  }
  return preds;
}

struct LabelCheck {
  std::size_t compared = 0;
  std::size_t agreed = 0;
};

// Re-derives the served labels of `streams` offline: core::FrameBuilder
// frames of the same windows, M2AINetwork::predict under the ref backend.
LabelCheck check_labels(const Fleet& fleet, const std::vector<int>& streams,
                        const std::vector<StreamLog>& logs,
                        const std::vector<std::vector<serve::Prediction>>& preds,
                        const std::string& model_path) {
  kern::set_backend(kern::BackendKind::kReference);
  const auto base = load_served_network(model_path);
  par::ScopedNumThreads threads(kCheckThreads);
  const int workers = std::max(1, par::chunk_workers(streams.size()));
  std::vector<std::unique_ptr<core::M2AINetwork>> nets;
  for (int w = 0; w < workers; ++w) nets.push_back(base->clone());
  std::vector<std::size_t> compared(streams.size(), 0), agreed(streams.size(), 0);
  par::parallel_chunks(streams.size(), workers,
                       [&](int w, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const int s = streams[i];
      const StreamLog& log = logs[static_cast<std::size_t>(s)];
      const core::FrameSequence frames =
          fleet.reference_frames(s, log.sent, windows_closed(fleet, s, log));
      for (const serve::Prediction& p : preds[static_cast<std::size_t>(s)]) {
        if (p.frame_index + 1 < static_cast<std::size_t>(kSequenceFrames) ||
            p.frame_index >= frames.size()) {
          ++compared[i];  // a label for a window that cannot exist: disagreement
          continue;
        }
        const auto last = frames.begin() + static_cast<std::ptrdiff_t>(p.frame_index) + 1;
        const core::FrameSequence seq(last - kSequenceFrames, last);
        ++compared[i];
        agreed[i] += nets[static_cast<std::size_t>(w)]->predict(seq) == p.label ? 1 : 0;
      }
    }
  });
  LabelCheck out;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    out.compared += compared[i];
    out.agreed += agreed[i];
  }
  return out;
}

// Accounting shared by both serve workloads: the identities between what
// was sent, what the service counted and which labels came back.
struct Accounting {
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;         // late + invalid + wire-rejected + unaccounted
  std::uint64_t expected_labels = 0;
  std::uint64_t missing_labels = 0;  // expected windows with no label
  std::uint64_t delivered = 0;       // labels the benchmark received
  // Share of labels equal to the replayed recording's activity, averaged
  // over recordings so it does not depend on how many streams (and windows)
  // each recording got.
  double accuracy = 0.0;
};

Accounting account(const Fleet& fleet, const std::vector<StreamLog>& logs,
                   const std::vector<std::vector<serve::Prediction>>& preds,
                   const serve::ServiceStats& st, Result& res) {
  Accounting acc;
  std::uint64_t windows_total = 0;
  std::vector<double> labels(fleet.sources().size(), 0.0), right(labels);
  const std::uint64_t wire_rejected =
      st.wire.rejected_records() + kRecordsPerFrame * st.wire.rejected_frames();
  for (int s = 0; s < fleet.num_streams(); ++s) {
    const StreamLog& log = logs[static_cast<std::size_t>(s)];
    const long windows = windows_closed(fleet, s, log);
    windows_total += static_cast<std::uint64_t>(windows);
    acc.sent += log.sent;
    const long expected = std::max(0L, windows - (kSequenceFrames - 1));
    acc.expected_labels += static_cast<std::uint64_t>(expected);
    std::vector<char> seen(static_cast<std::size_t>(std::max(windows, 0L)), 0);
    const int truth = fleet.source(s).sample.label;
    const auto recording = static_cast<std::size_t>(fleet.plan(s).source);
    for (const serve::Prediction& p : preds[static_cast<std::size_t>(s)]) {
      ++acc.delivered;
      ++labels[recording];
      right[recording] += p.label == truth ? 1 : 0;
      if (p.frame_index < seen.size()) seen[p.frame_index] = 1;
    }
    for (long k = kSequenceFrames - 1; k < windows; ++k) {
      acc.missing_labels += seen[static_cast<std::size_t>(k)] ? 0 : 1;
    }
  }
  std::size_t recordings = 0;
  for (std::size_t r = 0; r < labels.size(); ++r) {
    if (labels[r] == 0) continue;
    acc.accuracy += right[r] / labels[r];
    ++recordings;
  }
  if (recordings > 0) acc.accuracy /= static_cast<double>(recordings);
  const std::uint64_t accounted =
      st.reports + st.late_dropped + st.invalid_dropped + wire_rejected;
  acc.dropped = st.late_dropped + st.invalid_dropped + wire_rejected +
                (acc.sent > accounted ? acc.sent - accounted : 0);
  res.check(acc.sent == accounted,
            "reports sent (" + std::to_string(acc.sent) + ") != assembled + late + "
            "invalid + wire-rejected (" + std::to_string(accounted) + ")");
  const std::uint64_t want_predictions =
      windows_total - static_cast<std::uint64_t>(kSequenceFrames - 1) *
                          static_cast<std::uint64_t>(fleet.num_streams());
  res.check(st.frames == windows_total,
            "service closed " + std::to_string(st.frames) + " windows, expected " +
                std::to_string(windows_total));
  res.check(st.predictions == want_predictions && acc.delivered == want_predictions &&
                acc.missing_labels == 0,
            "predictions: service counted " + std::to_string(st.predictions) +
                ", delivered " + std::to_string(acc.delivered) + ", missing " +
                std::to_string(acc.missing_labels) + "; windows closed - (T-1) per "
                "stream = " + std::to_string(want_predictions));
  res.attempted += acc.sent + acc.expected_labels;
  res.failed += acc.dropped + acc.missing_labels;
  return acc;
}

// Source samples simulated per second over all set-ups.
double datagen_rate(const Fleet& fleet, const SetupTimes& setups) {
  double sim_s = 0.0;
  for (double t : setups.sim_s) sim_s += t;
  return static_cast<double>(fleet.sources().size() * setups.sim_s.size()) / sim_s;
}

void check_thread_budget(int threads_seen, Result& res) {
  res.check(threads_seen <= host_cores(),
            "process ran " + std::to_string(threads_seen) + " threads on " +
                std::to_string(host_cores()) + " cores");
}

}  // namespace

Rig set_up_rig(const Options& opt, int repeats, SetupTimes* times) {
  Rig rig;
  for (int r = 0; r < repeats; ++r) {
    rig.service.reset();
    rig.fleet.reset();
    const double t0 = now_s();
    rig.fleet = std::make_unique<Fleet>(opt.seed, host_cores());
    times->sim_s.push_back(now_s() - t0);
    rig.service = std::make_unique<serve::Service>(
        serve::ServeConfig{}, rig.fleet->config(), load_served_network(opt.model_path));
    for (int s = 0; s < rig.fleet->num_streams(); ++s) {
      rig.service->add_stream(rig.fleet->source(s).calibrator.get(),
                              rig.fleet->plan(s).t_begin);
    }
    rig.service->start();
    times->setup_s.push_back(now_s() - t0);
  }
  return rig;
}

Result run_serve_paced(const Options& opt, bool traced, ServiceCounters* counters) {
  Result res;
  kern::set_backend(kern::BackendKind::kReference);
  obs::set_enabled(false);
  SetupTimes setups;
  Rig rig = set_up_rig(opt, traced ? 1 : kSetups / 2, &setups);
  const Fleet& fleet = *rig.fleet;
  serve::Service& service = *rig.service;
  const int num_streams = fleet.num_streams();

  proto::WireOptions wire;
  wire.records_per_frame = kRecordsPerFrame;
  std::vector<StreamLog> logs(static_cast<std::size_t>(num_streams));
  std::vector<proto::FrameParser> parsers(traced ? static_cast<std::size_t>(num_streams) : 0);
  std::vector<sim::TagReport> records, decoded;
  std::vector<std::uint8_t> bytes;
  std::uint64_t offers = 0, refused = 0;
  bool drop_pending = opt.inject == "drop-report";

  // Hands reports [j, j_end) of stream s to the service as one wire frame.
  const auto send = [&](int s, std::size_t j, std::size_t j_end, bool measured) {
    records.clear();
    for (std::size_t k = j; k < j_end; ++k) {
      if (drop_pending && measured && k == j + 1) {
        drop_pending = false;  // self-test: counted as sent, never transmitted
        continue;
      }
      records.push_back(fleet.report(s, k));
    }
    bytes.clear();
    proto::append_inventory_frame(records.data(), records.size(), wire, bytes);
    if (!traced) {
      service.push_bytes(s, bytes.data(), bytes.size());
    } else {
      decoded.clear();
      {
        Scope span("proto.feed_live", static_cast<std::uint64_t>(s));
        parsers[static_cast<std::size_t>(s)].feed(bytes.data(), bytes.size(), decoded);
      }
      Scope span("serve.offer_live", static_cast<std::uint64_t>(s));
      for (const sim::TagReport& r : decoded) {
        ++offers;
        while (!service.offer(s, r)) {
          ++refused;
          ++offers;
          std::this_thread::yield();
        }
      }
    }
    logs[static_cast<std::size_t>(s)].sent = j_end;
  };

  // Warm-up: every stream's first T-1 windows, so the measured phase starts
  // with full sequences and every window it closes yields a label.
  {
    std::vector<std::size_t> warm_end(static_cast<std::size_t>(num_streams));
    for (int s = 0; s < num_streams; ++s) {
      warm_end[static_cast<std::size_t>(s)] =
          fleet.first_report_of_window(s, kSequenceFrames - 1);
    }
    for (bool more = true; more;) {
      more = false;
      for (int s = 0; s < num_streams; ++s) {
        StreamLog& log = logs[static_cast<std::size_t>(s)];
        const std::size_t end = warm_end[static_cast<std::size_t>(s)];
        if (log.sent >= end) continue;
        send(s, log.sent, std::min(log.sent + kRecordsPerFrame, end), false);
        more = true;
      }
    }
    for (int s = 0; s < num_streams; ++s) {
      StreamLog& log = logs[static_cast<std::size_t>(s)];
      log.measured_from = log.sent;
      log.last_window = fleet.window(s, log.sent - 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));  // let the DSP drain
  }

  // Measured phase: open loop. Report j of stream s is due at
  // origin + phase_s + (j - measured_from) / rate; a frame goes out when its
  // last record is due. Latency counts from each report's own due time.
  const double origin = now_s() + 0.005;
  const double stop_at = origin + opt.seconds;
  const auto due = [&](int s, std::size_t j) {
    const StreamLog& log = logs[static_cast<std::size_t>(s)];
    return origin + fleet.plan(s).phase_s +
           static_cast<double>(j - log.measured_from) / kStreamRateHz;
  };
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> schedule;
  for (int s = 0; s < num_streams; ++s) {
    schedule.emplace(due(s, logs[static_cast<std::size_t>(s)].sent + kRecordsPerFrame - 1), s);
  }
  std::vector<double> lag_ms, stall_ms;
  const double cpu0 = process_cpu_s();
  const double gen_cpu0 = thread_cpu_s();
  double push_cpu = 0.0;
  int threads_seen = process_threads();
  while (!schedule.empty()) {
    const auto [frame_due, s] = schedule.top();
    if (frame_due >= stop_at) break;
    schedule.pop();
    double now = now_s();
    if (now < frame_due) {
      sleep_until_s(frame_due);
      now = now_s();
    }
    lag_ms.push_back((now - frame_due) * 1e3);
    StreamLog& log = logs[static_cast<std::size_t>(s)];
    const std::size_t j = log.sent;
    const double c0 = thread_cpu_s();
    send(s, j, j + kRecordsPerFrame, true);
    const double ret = now_s();
    push_cpu += thread_cpu_s() - c0;
    stall_ms.push_back((ret - now) * 1e3);
    for (std::size_t k = j; k < j + kRecordsPerFrame; ++k) {
      log.note_report(fleet.window(s, k), due(s, k), ret);
    }
    schedule.emplace(due(s, log.sent + kRecordsPerFrame - 1), s);
  }
  const double sent_until = now_s();
  threads_seen = std::max(threads_seen, process_threads());
  service.finish();
  const double service_cpu =
      (process_cpu_s() - cpu0) - ((thread_cpu_s() - gen_cpu0) - push_cpu);
  const double rss_mb = peak_rss_mb();  // before the offline check allocates
  check_thread_budget(threads_seen, res);

  const serve::ServiceStats st = service.stats();
  const auto preds = collect_predictions(service, num_streams, opt.inject);
  serve::ServiceStats accounted_stats = st;
  if (traced) {
    for (const auto& p : parsers) accounted_stats.wire.add(p.stats());
  }
  const Accounting acc = account(fleet, logs, preds, accounted_stats, res);

  // End-to-end latency of every label whose window a measured-phase report
  // closed: (push return - due) of the closing report, plus the service's
  // own stamp-to-label time. Charging the whole push call (parse, ring
  // waits) to the label keeps blocking stalls visible.
  // Percentiles are taken per block of closing-report due times and
  // reported as the median over blocks, so one slow episode of the host
  // moves one block rather than the whole figure.
  const auto blocks = static_cast<std::size_t>(
      std::max(1.0, std::floor(opt.seconds / kLatencyBlockSeconds)));
  std::vector<std::vector<double>> e2e(blocks);
  std::size_t timed = 0;
  std::uint64_t report_closed = 0, within = 0;
  double last_label = origin;
  for (int s = 0; s < num_streams; ++s) {
    const StreamLog& log = logs[static_cast<std::size_t>(s)];
    for (std::size_t k = kSequenceFrames - 1; k < log.closer_due.size(); ++k) {
      report_closed += std::isnan(log.closer_due[k]) ? 0 : 1;
    }
    for (const serve::Prediction& p : preds[static_cast<std::size_t>(s)]) {
      if (p.frame_index >= log.closer_due.size() || std::isnan(log.closer_due[p.frame_index])) {
        continue;  // closed by end-of-stream flush, or during warm-up
      }
      const double due_s = log.closer_due[p.frame_index];
      const double ms = (log.closer_ret[p.frame_index] - due_s) * 1e3 + p.latency_ms;
      const auto block = std::min(
          blocks - 1, static_cast<std::size_t>((due_s - origin) / opt.seconds *
                                               static_cast<double>(blocks)));
      e2e[block].push_back(ms);
      ++timed;
      within += ms <= kSloMs ? 1 : 0;
      last_label = std::max(last_label, due_s + ms / 1e3);
    }
  }
  std::vector<double> p50, p99;
  for (const auto& b : e2e) {
    p50.push_back(quantile(b, 0.5));
    p99.push_back(quantile(b, 0.99));
  }
  std::uint64_t measured_reports = 0;
  for (const StreamLog& log : logs) measured_reports += log.sent - log.measured_from;
  const double labels_per_s = static_cast<double>(timed) / (last_label - origin);

  if (counters != nullptr) {
    counters->stats = accounted_stats;
    counters->offers = offers;
    counters->offers_refused = refused;
  }
  if (traced) return res;

  std::vector<int> all(static_cast<std::size_t>(num_streams));
  for (int s = 0; s < num_streams; ++s) all[static_cast<std::size_t>(s)] = s;
  const LabelCheck check = check_labels(fleet, all, logs, preds, opt.model_path);
  const double agreement =
      check.compared ? static_cast<double>(check.agreed) / static_cast<double>(check.compared)
                     : 0.0;
  res.check(check.compared > 0 && agreement == 1.0,
            "label_agreement " + std::to_string(agreement) +
                " on serve_paced; the ref backend promises 1.0 (bitwise)");

  std::printf("generator: %zu frames, lag p50 %.3f ms p99 %.3f ms max %.3f ms; "
              "push_bytes p99 %.3f ms max %.3f ms; %d threads\n",
              lag_ms.size(), quantile(lag_ms, 0.5), quantile(lag_ms, 0.99),
              quantile(lag_ms, 1.0), quantile(stall_ms, 0.99), quantile(stall_ms, 1.0),
              threads_seen);
  std::printf("labels: %zu timed, %llu expected, %llu missing; offline check %zu/%zu\n",
              timed, static_cast<unsigned long long>(acc.expected_labels),
              static_cast<unsigned long long>(acc.missing_labels), check.agreed,
              check.compared);

  set_up_rig(opt, kSetups / 2, &setups);  // the second half; its rig is dropped
  res.add("setup_s", median(setups.setup_s), "s");
  res.add("peak_rss_mb", rss_mb, "MiB");
  res.add("e2e_p50_ms", median(p50), "ms");
  res.add("e2e_p99_ms", median(p99), "ms");
  res.add("within_slo_ratio",
          report_closed ? static_cast<double>(within) / static_cast<double>(report_closed) : 0.0,
          "ratio");
  res.add("service_cpu_us_per_report",
          measured_reports ? service_cpu / static_cast<double>(measured_reports) * 1e6 : 0.0,
          "us");
  res.add("label_agreement", agreement, "ratio");
  // Open loop: both rates follow the offered load; the denominators are the
  // measured spans (last frame handed over, last label available).
  res.add("reports_per_s", static_cast<double>(measured_reports) / (sent_until - origin), "1/s");
  res.add("predictions_per_s", labels_per_s, "1/s");
  res.add("datagen_samples_per_s", datagen_rate(fleet, setups), "1/s");
  // Serving only infers: the network's sequences per second are its labels.
  res.add("train_seqs_per_s", labels_per_s, "1/s");
  res.add("test_accuracy", acc.accuracy, "ratio");
  return res;
}

Result run_serve_saturate(const Options& opt, bool traced, ServiceCounters* counters) {
  Result res;
  obs::set_enabled(true);
  kern::set_backend_by_name("fast");
  res.check(kern::active_backend_kind() == kern::BackendKind::kFast,
            "fast backend unavailable on this CPU");
  SetupTimes setups;
  Rig rig = set_up_rig(opt, traced ? 1 : kSetups / 2, &setups);
  const Fleet& fleet = *rig.fleet;
  serve::Service& service = *rig.service;
  const int num_streams = fleet.num_streams();
  std::vector<StreamLog> logs(static_cast<std::size_t>(num_streams));
  std::vector<std::size_t> first_label(static_cast<std::size_t>(num_streams));
  for (int s = 0; s < num_streams; ++s) {
    first_label[static_cast<std::size_t>(s)] = fleet.first_report_of_window(s, kSequenceFrames);
  }
  obs::Counter& predicted = obs::registry().counter("serve.predictions");
  bool drop_pending = opt.inject == "drop-report";

  // Closed loop: each stream's next reports go out as soon as its ring
  // takes them. A bounded burst per visit keeps the streams interleaved, and
  // the generator refills every ring once per kRefillPeriod instead of
  // spinning: a ring holds about a second of its stream's work, so the
  // service never waits for input, and the generator leaves the cores to
  // the service threads.
  std::uint64_t offers = 0, refused = 0;
  const auto pass = [&] {
    std::this_thread::sleep_for(kRefillPeriod);
    for (int s = 0; s < num_streams; ++s) {
      StreamLog& log = logs[static_cast<std::size_t>(s)];
      for (int burst = 0; burst < 16; ++burst) {
        if (drop_pending && log.sent == first_label[0] && s == 0) {
          drop_pending = false;  // self-test: counted as sent, never offered
          ++log.sent;
          continue;
        }
        ++offers;
        if (!service.offer(s, fleet.report(s, log.sent))) {
          ++refused;
          break;
        }
        ++log.sent;
      }
    }
  };

  // Warm-up: until every stream has produced labels, and at least 1 s.
  const double warm_start = now_s();
  for (;;) {
    pass();
    bool ready = now_s() - warm_start >= 1.0;
    for (int s = 0; ready && s < num_streams; ++s) {
      ready = logs[static_cast<std::size_t>(s)].sent > first_label[static_cast<std::size_t>(s)];
    }
    if (ready) break;
    if (now_s() - warm_start > 60.0) {
      res.check(false, "warm-up did not reach a label on every stream within 60 s");
      break;
    }
  }

  const auto accepted = [&] {
    std::uint64_t n = 0;
    for (const StreamLog& log : logs) n += log.sent;
    return n;
  };
  const auto sent_now = [&] {
    std::vector<std::size_t> sent;
    for (const StreamLog& log : logs) sent.push_back(log.sent);
    return sent;
  };
  const double t1 = now_s();
  const std::vector<std::size_t> sent1 = sent_now();
  const std::uint64_t accepted1 = accepted(), predicted1 = predicted.value();
  const std::uint64_t offers1 = offers, refused1 = refused;
  const double cpu1 = process_cpu_s(), gen_cpu1 = thread_cpu_s();
  int threads_seen = process_threads();
  // Rates per one-second block, reported as medians: a slow second of the
  // host moves one block, not the figure.
  std::vector<double> report_rates, prediction_rates, cpu_per_report;
  double tb = t1, cpu_b = cpu1, gen_cpu_b = gen_cpu1;
  std::uint64_t accepted_b = accepted1, predicted_b = predicted1;
  for (double now = t1; now - t1 < opt.seconds; now = now_s()) {
    pass();
    if (now - tb < kBlockSeconds) continue;
    const double cpu = process_cpu_s(), gen_cpu = thread_cpu_s();
    const std::uint64_t acc = accepted(), pred = predicted.value();
    report_rates.push_back(static_cast<double>(acc - accepted_b) / (now - tb));
    prediction_rates.push_back(static_cast<double>(pred - predicted_b) / (now - tb));
    if (acc > accepted_b) {
      cpu_per_report.push_back(((cpu - cpu_b) - (gen_cpu - gen_cpu_b)) /
                               static_cast<double>(acc - accepted_b) * 1e6);
    }
    tb = now, cpu_b = cpu, gen_cpu_b = gen_cpu, accepted_b = acc, predicted_b = pred;
  }
  const std::vector<std::size_t> sent2 = sent_now();
  threads_seen = std::max(threads_seen, process_threads());
  service.finish();
  obs::set_enabled(false);
  const double rss_mb = peak_rss_mb();  // before the offline check allocates
  check_thread_budget(threads_seen, res);

  const serve::ServiceStats st = service.stats();
  const auto preds = collect_predictions(service, num_streams, opt.inject);
  const Accounting acc = account(fleet, logs, preds, st, res);
  if (counters != nullptr) {
    counters->stats = st;
    counters->offers = offers - offers1;
    counters->offers_refused = refused - refused1;
  }
  if (traced) return res;

  // Label latency at capacity: from the closing report's acceptance (the
  // service stamps it in offer) to the label, ring backlog included, for
  // the windows that reports accepted inside the timed interval closed.
  std::vector<double> latency;
  for (int s = 0; s < num_streams; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const long w1 = fleet.window(s, sent1[i] - 1), w2 = fleet.window(s, sent2[i] - 1);
    for (const serve::Prediction& p : preds[i]) {
      const auto k = static_cast<long>(p.frame_index);
      if (k >= w1 && k < w2) latency.push_back(p.latency_ms);
    }
  }
  util::Rng pick(opt.seed ^ 0xc4ec'4ed0'0000'0000ULL);
  std::vector<int> streams(static_cast<std::size_t>(num_streams));
  for (int s = 0; s < num_streams; ++s) streams[static_cast<std::size_t>(s)] = s;
  pick.shuffle(streams);
  streams.resize(static_cast<std::size_t>(std::min(kSaturateCheckedStreams, num_streams)));
  if (opt.inject == "flip-label" || opt.inject == "drop-prediction") {
    if (std::find(streams.begin(), streams.end(), 0) == streams.end()) streams[0] = 0;
  }
  const LabelCheck check = check_labels(fleet, streams, logs, preds, opt.model_path);
  const double agreement =
      check.compared ? static_cast<double>(check.agreed) / static_cast<double>(check.compared)
                     : 0.0;
  res.check(check.compared > 0 && agreement >= 0.99,
            "label_agreement " + std::to_string(agreement) +
                " on serve_saturate (fast vs offline ref), floor 0.99");

  std::printf("generator: closed loop, %llu offers, %.4f refused; %d threads\n",
              static_cast<unsigned long long>(offers - offers1),
              offers > offers1 ? static_cast<double>(refused - refused1) /
                                     static_cast<double>(offers - offers1)
                               : 0.0,
              threads_seen);
  std::printf("labels: %llu delivered, %llu expected, %llu missing; offline check %zu/%zu\n",
              static_cast<unsigned long long>(acc.delivered),
              static_cast<unsigned long long>(acc.expected_labels),
              static_cast<unsigned long long>(acc.missing_labels), check.agreed,
              check.compared);

  set_up_rig(opt, kSetups / 2, &setups);  // the second half; its rig is dropped
  res.add("setup_s", median(setups.setup_s), "s");
  res.add("peak_rss_mb", rss_mb, "MiB");
  res.add("e2e_p50_ms", quantile(latency, 0.5), "ms");
  res.add("e2e_p99_ms", quantile(latency, 0.99), "ms");
  // A closed loop has no arrival schedule to hold a budget against: here the
  // ratio is the share of expected labels delivered at all.
  res.add("within_slo_ratio",
          acc.expected_labels ? static_cast<double>(acc.expected_labels - acc.missing_labels) /
                                    static_cast<double>(acc.expected_labels)
                              : 0.0,
          "ratio");
  res.add("service_cpu_us_per_report", median(cpu_per_report), "us");
  res.add("label_agreement", agreement, "ratio");
  res.add("reports_per_s", median(report_rates), "1/s");
  res.add("predictions_per_s", median(prediction_rates), "1/s");
  res.add("datagen_samples_per_s", datagen_rate(fleet, setups), "1/s");
  // Serving only infers: the network's sequences per second are its labels.
  res.add("train_seqs_per_s", median(prediction_rates), "1/s");
  res.add("test_accuracy", acc.accuracy, "ratio");
  return res;
}

}  // namespace perfbench
