// The serve workloads' inputs: a fleet of reader streams, each replaying
// one seed-simulated source sample from a seed-chosen start report, plus the
// served network and the offline reference the served labels are checked
// against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "sim/reader.hpp"

namespace perfbench {

// Tag records per wire frame a reader sends.
inline constexpr std::size_t kRecordsPerFrame = 4;
// Reader streams of the serve workloads.
inline constexpr int kStreams = 64;

// Pipeline settings shared by the served network and every stream.
m2ai::core::PipelineConfig serve_pipeline_config();

// Loads the served network from its checkpoint (throws if it is missing or
// does not match the model's parameter shapes).
std::unique_ptr<m2ai::core::M2AINetwork> load_served_network(const std::string& path);

struct StreamPlan {
  int source = 0;          // index into Fleet::sources
  std::size_t start = 0;   // first replayed report of the source
  double t_begin = 0.0;    // window 0 anchor of the stream
  double phase_s = 0.0;    // wall-clock offset of the stream's schedule
};

// Seed of the recording corpus the streams replay: one simulated sample per
// activity. It is fixed, like the served checkpoint (whose training data came
// from another seed), so the served labels' accuracy does not swing with
// which twelve recordings a workload seed happens to draw.
inline constexpr std::uint64_t kCorpusSeed = 0x6d32'6169'0000'0001ULL;

class Fleet {
 public:
  // Simulates the corpus on `threads` threads and derives the kStreams
  // per-stream plans from `seed`: each stream's recording, start report and
  // schedule phase.
  Fleet(std::uint64_t seed, int threads);

  const m2ai::core::PipelineConfig& config() const { return config_; }
  int num_streams() const { return static_cast<int>(plans_.size()); }
  int num_tags() const { return config_.num_persons * config_.tags_per_person; }
  const StreamPlan& plan(int s) const { return plans_[static_cast<std::size_t>(s)]; }
  const m2ai::core::SampleRun& source(int s) const {
    return sources_[static_cast<std::size_t>(plan(s).source)];
  }
  const std::vector<m2ai::core::SampleRun>& sources() const { return sources_; }

  // The j-th report of stream s: the source's reports from `start` on,
  // replayed end to end, each replay shifted by one sample duration.
  m2ai::sim::TagReport report(int s, std::size_t j) const;
  // Window the stream's assembler puts report j in (same formula as
  // serve::StreamAssembler).
  long window(int s, std::size_t j) const;
  // First report index whose window is >= w.
  std::size_t first_report_of_window(int s, long w) const;

  // Offline reference frames of stream s over its first `n_reports` reports:
  // core::FrameBuilder (the batch path) over the same report stream and
  // window grid, `num_windows` frames long.
  m2ai::core::FrameSequence reference_frames(int s, std::size_t n_reports,
                                             long num_windows) const;

 private:
  m2ai::core::PipelineConfig config_;
  std::vector<m2ai::core::SampleRun> sources_;
  std::vector<StreamPlan> plans_;
};

}  // namespace perfbench
