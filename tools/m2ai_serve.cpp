// m2ai_serve — load generator + driver for the streaming inference service.
//
// Simulates a fleet of readers: each of --streams replays the LLRP report
// stream of a real Pipeline sample (streams cycle over --activities distinct
// samples, each with its own calibrator), paced at --rate reports/sec/stream
// (0 = as fast as possible), for --duration wall seconds or --samples full
// sample replays per stream, whichever the flags select. All reports flow
// through serve::Service (SPSC ingest rings -> DSP workers, each running
// the whole network for its streams) and the run ends with a
// latency/throughput summary:
//
//   m2ai_serve --streams 100 --rate 2000 --duration 5 --workers 4
//              --bench-out bench_results/BENCH_serve.json
//              [--metrics-out metrics.json] [--trace-out trace.json]
//
// The bench JSON carries end-to-end p50/p99, sustained report/prediction
// rates, and streams-per-core (getrusage CPU time vs wall time) — the
// committed bench_results/BENCH_serve_*.json baselines come from here.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "kern/backend.hpp"
#include "kern/micro.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "par/parallel_for.hpp"
#include "proto/wire.hpp"
#include "serve/service.hpp"
#include "util/args.hpp"

using namespace m2ai;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: m2ai_serve [--streams N] [--rate HZ] [--duration S]\n"
               "                  [--samples K] [--workers W]\n"
               "                  [--producers P] [--activities A] [--windows T]\n"
               "                  [--persons P] [--tags T] [--seed S] [--wire]\n"
               "                  [--wire-records R] [--backend ref|fast]\n"
               "                  [--bench-out FILE]\n"
               "                  [--metrics-out FILE] [--trace-out FILE]\n"
               "  --streams N    simulated reader streams (default 8)\n"
               "  --rate HZ      reports/sec per stream, 0 = unthrottled (default 0)\n"
               "  --duration S   wall-clock budget in seconds, 0 = no limit (default 0)\n"
               "  --samples K    sample replays per stream (default 1)\n"
               "  --workers W    DSP worker threads (default %d)\n"
               "  --producers P  producer threads (default min(streams, 4))\n"
               "  --wire         serialize reports to JRD-4035-style frames and\n"
               "                 ingest via the wire-protocol parser (src/proto)\n"
               "  --wire-records R  tag records per inventory frame (default 1)\n"
               "  --backend B    kernel backend for inference: ref (default,\n"
               "                 bitwise-deterministic) or fast (SIMD; falls\n"
               "                 back to ref without AVX2/FMA).\n"
               "                 Env override: M2AI_KERN_BACKEND\n",
               serve::ServeConfig{}.dsp_workers);
  return 2;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

struct StreamSource {
  const core::SampleRun* run = nullptr;
  double t_begin = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  try {
    args.require_known({"streams", "rate", "duration", "samples", "workers",
                        "producers", "activities", "windows", "persons", "tags",
                        "seed", "wire", "wire-records", "backend", "bench-out",
                        "metrics-out", "trace-out", "help"});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "m2ai_serve: %s\n", e.what());
    return usage();
  }
  if (args.has("help")) return usage();

  const int num_streams = args.get_int("streams", 8);
  const double rate_hz = args.get_double("rate", 0.0);
  const double duration_sec = args.get_double("duration", 0.0);
  const int samples_per_stream = args.get_int("samples", 1);
  const int activities = args.get_int("activities", 3);
  const bool wire = args.has("wire");
  proto::WireOptions wire_options;
  wire_options.records_per_frame =
      static_cast<std::size_t>(args.get_int("wire-records", 1));
  if (num_streams < 1 || samples_per_stream < 1 || activities < 1 ||
      wire_options.records_per_frame < 1) {
    return usage();
  }

  // CLI flag wins over the M2AI_KERN_BACKEND environment override (already
  // applied at static init). A fast request on a CPU without AVX2/FMA
  // silently degrades to ref; the bench JSON records what actually ran.
  if (args.has("backend")) {
    try {
      kern::set_backend_by_name(args.get("backend", "ref"));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "m2ai_serve: %s\n", e.what());
      return usage();
    }
  }
  const char* backend_name = kern::active().name;

  serve::ServeConfig serve_config;
  serve_config.dsp_workers = args.get_int("workers", serve_config.dsp_workers);

  core::PipelineConfig pipeline_config;
  pipeline_config.num_persons = args.get_int("persons", 2);
  pipeline_config.tags_per_person = args.get_int("tags", 3);
  pipeline_config.windows_per_sample = args.get_int("windows", 16);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 20180545));

  const std::string metrics_out = args.get("metrics-out", "");
  const std::string trace_out = args.get("trace-out", "");
  const std::string bench_out = args.get("bench-out", "");
  if (!metrics_out.empty() || !trace_out.empty()) obs::set_enabled(true);
  if (!trace_out.empty()) {
    obs::register_thread_name("main");
    obs::set_timeline_enabled(true);
  }

  // ---- Source material: a few real pipeline samples (reports + calibrator).
  // Simulation is the expensive part, so every stream replays one of these.
  std::printf("simulating %d source sample(s)...\n", activities);
  core::Pipeline pipeline(pipeline_config, seed);
  std::vector<core::SampleRun> runs;
  runs.reserve(static_cast<std::size_t>(activities));
  for (int a = 0; a < activities; ++a) {
    runs.push_back(pipeline.run_sample(1 + (a % 12), pipeline.fork_sample_rng()));
  }
  std::vector<StreamSource> sources(static_cast<std::size_t>(num_streams));
  for (int s = 0; s < num_streams; ++s) {
    const core::SampleRun& run = runs[static_cast<std::size_t>(s % activities)];
    sources[static_cast<std::size_t>(s)].run = &run;
    // Window 0 anchor: the batch pipeline frames [t0, t0 + T*window) with
    // t0 = bootstrap + half a window (see Pipeline::run_sample).
    sources[static_cast<std::size_t>(s)].t_begin =
        pipeline_config.phase_calibration
            ? pipeline_config.bootstrap_sec + 0.5 * pipeline_config.window_sec
            : 0.5 * pipeline_config.window_sec;
  }

  // ---- Service.
  const int num_classes = 12;
  core::ModelConfig model_config;
  auto network = std::make_unique<core::M2AINetwork>(
      model_config, pipeline_config.feature_mode,
      pipeline_config.num_persons * pipeline_config.tags_per_person,
      pipeline_config.num_antennas, num_classes);
  serve::Service service(serve_config, pipeline_config, std::move(network));
  for (int s = 0; s < num_streams; ++s) {
    const StreamSource& src = sources[static_cast<std::size_t>(s)];
    service.add_stream(src.run->calibrator.get(), src.t_begin);
  }
  service.start();

  // ---- Producers: each owns a disjoint set of streams (SPSC: one producer
  // per ingest ring) and replays reports paced to --rate.
  const int num_producers =
      std::max(1, std::min(args.get_int("producers", std::min(num_streams, 4)),
                           num_streams));
  std::printf(
      "serving %d streams (%d producers, %d dsp workers, backend %s)...\n",
      num_streams, num_producers, serve_config.dsp_workers, backend_name);

  using clock = std::chrono::steady_clock;
  const auto t_start = clock::now();
  const double cpu_start = cpu_seconds();
  std::vector<std::uint64_t> sent(static_cast<std::size_t>(num_producers), 0);
  std::vector<std::thread> producers;
  producers.reserve(static_cast<std::size_t>(num_producers));
  for (int p = 0; p < num_producers; ++p) {
    producers.emplace_back([&, p] {
      obs::register_thread_name("serve-gen-" + std::to_string(p));
      struct Cursor {
        int stream;
        std::size_t next = 0;  // report index within the current replay
        int replay = 0;        // completed replays
        double t_offset = 0.0; // virtual-time shift of the current replay
        std::uint64_t sent = 0;
        bool done = false;
        std::vector<sim::TagReport> pending;  // wire mode: unframed reports
      };
      std::vector<Cursor> cursors;
      for (int s = p; s < num_streams; s += num_producers) {
        Cursor c{};
        c.stream = s;
        cursors.push_back(std::move(c));
      }
      // Wire mode: the producer is the reader-side serializer — reports are
      // framed (records_per_frame per inventory frame) and the service
      // ingests raw bytes through its per-stream FrameParser.
      const auto flush_pending = [&](Cursor& c) {
        if (c.pending.empty()) return;
        const std::vector<std::uint8_t> bytes =
            proto::serialize_stream(c.pending, wire_options);
        service.push_bytes(c.stream, bytes.data(), bytes.size());
        c.pending.clear();
      };
      std::uint64_t total = 0;
      bool running = true;
      while (running) {
        running = false;
        const double elapsed =
            std::chrono::duration<double>(clock::now() - t_start).count();
        if (duration_sec > 0.0 && elapsed >= duration_sec) break;
        bool progressed = false;
        for (Cursor& c : cursors) {
          if (c.done) continue;
          running = true;
          // Pacing: report k of this stream is due at wall time k / rate.
          if (rate_hz > 0.0 &&
              static_cast<double>(c.sent) / rate_hz > elapsed) {
            continue;
          }
          const auto& reports =
              sources[static_cast<std::size_t>(c.stream)].run->reports;
          sim::TagReport report = reports[c.next];
          report.time_sec += c.t_offset;
          if (wire) {
            c.pending.push_back(report);
            if (c.pending.size() >= wire_options.records_per_frame) {
              flush_pending(c);  // blocking while the ring drains
            }
          } else if (!service.offer(c.stream, report)) {
            continue;  // ring full, retry this report next pass
          }
          ++c.sent;
          ++total;
          progressed = true;
          if (++c.next >= reports.size()) {
            c.next = 0;
            c.t_offset += pipeline_config.sample_duration_sec();
            if (++c.replay >= samples_per_stream && duration_sec <= 0.0) {
              c.done = true;
            }
          }
        }
        if (!progressed && running) {
          // Nothing went out this pass. Paced with nothing due yet: sleep
          // until the earliest due report. Otherwise a ring is full
          // (unthrottled, or a due report was refused): yield and retry.
          double next_due = std::numeric_limits<double>::infinity();
          if (rate_hz > 0.0) {
            for (const Cursor& c : cursors) {
              if (!c.done) next_due = std::min(next_due, static_cast<double>(c.sent) / rate_hz);
            }
            if (duration_sec > 0.0) next_due = std::min(next_due, duration_sec);
          }
          if (std::isfinite(next_due) && next_due > elapsed) {
            std::this_thread::sleep_until(
                t_start + std::chrono::duration_cast<clock::duration>(
                              std::chrono::duration<double>(next_due)));
          } else {
            std::this_thread::yield();
          }
        }
      }
      // Sent-report accounting must be exact for the sustained check: frame
      // out whatever a duration cutoff left unflushed.
      if (wire) {
        for (Cursor& c : cursors) flush_pending(c);
      }
      sent[static_cast<std::size_t>(p)] = total;
    });
  }
  for (auto& t : producers) t.join();
  service.finish();
  const double wall_sec =
      std::chrono::duration<double>(clock::now() - t_start).count();
  const double cpu_sec = cpu_seconds() - cpu_start;

  // ---- Summary.
  const serve::ServiceStats stats = service.stats();
  std::uint64_t reports_sent = 0;
  for (std::uint64_t n : sent) reports_sent += n;
  const obs::HistogramSnapshot e2e =
      obs::registry().histogram("serve.e2e_ms").snapshot();
  const double cores = wall_sec > 0.0 ? cpu_sec / wall_sec : 0.0;
  const double streams_per_core =
      cores > 0.0 ? static_cast<double>(num_streams) / cores : 0.0;
  obs::registry().gauge("serve.streams").set(static_cast<double>(num_streams));
  obs::registry().gauge("serve.streams_per_core").set(streams_per_core);
  obs::registry().gauge("serve.reports_per_sec").set(
      wall_sec > 0.0 ? static_cast<double>(reports_sent) / wall_sec : 0.0);

  // Per-backend kernel micro-timings, measured in-process after the load so
  // the run's own numbers carry their kernel context.
  const kern::KernMicro kern_micro = kern::measure_micro(kern::active());
  for (const auto& [gauge_name, ns] : kern::micro_gauge_items(backend_name, kern_micro)) {
    obs::registry().gauge(gauge_name).set(ns);
  }

  std::printf(
      "done in %.2fs wall / %.2fs cpu (%.2f cores)\n"
      "  reports   sent %llu, assembled %llu, late-dropped %llu, "
      "invalid-dropped %llu\n"
      "  frames    %llu closed, %llu predictions\n"
      "  e2e       p50 %.3f ms, p99 %.3f ms, max %.3f ms\n"
      "  capacity  %.1f streams/core at this load\n"
      "  backend   %s: kern.%s.*.ns_per_op gemv %.0f, gemm_bias %.0f,\n"
      "            conv1d_row %.0f, noise_projection %.0f\n",
      wall_sec, cpu_sec, cores, static_cast<unsigned long long>(reports_sent),
      static_cast<unsigned long long>(stats.reports),
      static_cast<unsigned long long>(stats.late_dropped),
      static_cast<unsigned long long>(stats.invalid_dropped),
      static_cast<unsigned long long>(stats.frames),
      static_cast<unsigned long long>(stats.predictions), e2e.p50, e2e.p99, e2e.max,
      streams_per_core, backend_name, backend_name, kern_micro.gemv_ns,
      kern_micro.gemm_bias_ns, kern_micro.conv1d_row_ns,
      kern_micro.noise_projection_ns);
  if (wire) {
    std::printf(
        "  wire      %llu bytes in %llu frames -> %llu reports "
        "(%llu frame rejects, %llu record rejects, %llu resync bytes)\n",
        static_cast<unsigned long long>(stats.wire.bytes_fed),
        static_cast<unsigned long long>(stats.wire.frames),
        static_cast<unsigned long long>(stats.wire.reports),
        static_cast<unsigned long long>(stats.wire.rejected_frames()),
        static_cast<unsigned long long>(stats.wire.rejected_records()),
        static_cast<unsigned long long>(stats.wire.resync_bytes));
  }

  // Sustained = every enqueued report was assembled (none dropped late or
  // invalid, nothing lost on the wire, and the drain finished); the
  // serve-smoke CI job asserts on this field.
  const bool sustained = stats.late_dropped == 0 &&
                         stats.invalid_dropped == 0 &&
                         stats.reports == reports_sent;
  if (!bench_out.empty()) {
    std::ofstream out(bench_out);
    if (!out) {
      std::fprintf(stderr, "m2ai_serve: cannot write %s\n", bench_out.c_str());
      return 1;
    }
    char buf[3072];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"schema\": \"m2ai_serve_bench_v1\",\n"
        "  \"backend\": \"%s\",\n"
        "  \"config\": {\"streams\": %d, \"rate_hz\": %g, \"duration_sec\": %g,\n"
        "             \"samples_per_stream\": %d, \"dsp_workers\": %d,\n"
        "             \"windows_per_sample\": %d, \"seed\": %llu,\n"
        "             \"wire\": %s},\n"
        "  \"wall_sec\": %.6f,\n"
        "  \"cpu_sec\": %.6f,\n"
        "  \"reports_sent\": %llu,\n"
        "  \"reports_assembled\": %llu,\n"
        "  \"late_dropped\": %llu,\n"
        "  \"invalid_dropped\": %llu,\n"
        "  \"wire_bytes\": %llu,\n"
        "  \"wire_frames\": %llu,\n"
        "  \"wire_rejects\": %llu,\n"
        "  \"frames\": %llu,\n"
        "  \"predictions\": %llu,\n"
        "  \"reports_per_sec\": %.2f,\n"
        "  \"e2e_ms\": {\"p50\": %.6f, \"p95\": %.6f, \"p99\": %.6f, \"max\": %.6f},\n"
        "  \"kern_ns_per_op\": {\"gemv\": %.1f, \"gemm_bias\": %.1f,\n"
        "                     \"conv1d_row\": %.1f, \"noise_projection\": %.1f},\n"
        "  \"streams_per_core\": %.3f,\n"
        "  \"sustained\": %s\n"
        "}\n",
        backend_name, num_streams, rate_hz, duration_sec, samples_per_stream,
        serve_config.dsp_workers, pipeline_config.windows_per_sample,
        static_cast<unsigned long long>(seed), wire ? "true" : "false",
        wall_sec, cpu_sec,
        static_cast<unsigned long long>(reports_sent),
        static_cast<unsigned long long>(stats.reports),
        static_cast<unsigned long long>(stats.late_dropped),
        static_cast<unsigned long long>(stats.invalid_dropped),
        static_cast<unsigned long long>(stats.wire.bytes_fed),
        static_cast<unsigned long long>(stats.wire.frames),
        static_cast<unsigned long long>(stats.wire.rejected_frames() +
                                        stats.wire.rejected_records()),
        static_cast<unsigned long long>(stats.frames),
        static_cast<unsigned long long>(stats.predictions),
        wall_sec > 0.0 ? static_cast<double>(reports_sent) / wall_sec : 0.0,
        e2e.p50, e2e.p95, e2e.p99, e2e.max, kern_micro.gemv_ns,
        kern_micro.gemm_bias_ns, kern_micro.conv1d_row_ns,
        kern_micro.noise_projection_ns, streams_per_core,
        sustained ? "true" : "false");
    out << buf;
    std::printf("bench summary written to %s\n", bench_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::write_report(metrics_out);
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    obs::write_chrome_trace(trace_out);
    std::printf("timeline written to %s (open in ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  return sustained ? 0 : 1;
}
