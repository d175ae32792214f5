#include "serve/assembler.hpp"

#include <cmath>

#include "dsp/periodogram.hpp"
#include "dsp/phase.hpp"
#include "obs/trace.hpp"
#include "rf/constants.hpp"

namespace m2ai::serve {

StreamAssembler::TagAccum::TagAccum(int num_antennas)
    : phases(static_cast<std::size_t>(num_antennas)),
      amplitudes(static_cast<std::size_t>(num_antennas)),
      rssis(static_cast<std::size_t>(num_antennas)),
      cov(num_antennas) {}

StreamAssembler::StreamAssembler(const core::PipelineConfig& config,
                                 const dsp::PhaseCalibrator* calibrator,
                                 int num_tags, double t_begin)
    : config_(config),
      calibrator_(calibrator),
      num_tags_(num_tags),
      t_begin_(t_begin),
      builder_(config, calibrator, num_tags) {
  tags_.reserve(static_cast<std::size_t>(num_tags));
  for (int t = 0; t < num_tags; ++t) tags_.emplace_back(config.num_antennas);
}

std::vector<core::SpectrumFrame> StreamAssembler::ingest(
    const sim::TagReport& report) {
  std::vector<core::SpectrumFrame> closed;
  const double rel = report.time_sec - t_begin_;
  const long w = static_cast<long>(std::floor(rel / config_.window_sec));
  if (w < 0 || (started_ && w < current_window_)) {
    ++stats_.late_dropped;
    return closed;
  }
  if (!started_) {
    // Window 0 opens at the first in-range report even if that report lands
    // in a later window — the skipped windows close as zero frames so frame
    // index always equals window index.
    started_ = true;
    current_window_ = 0;
  }
  while (current_window_ < w) {
    closed.push_back(close_window());
    ++current_window_;
  }

  // A report the stream cannot place is dropped with accounting, never
  // silently: wire-ingested streams see corrupt-but-checksum-valid ids, and
  // an out-of-range channel would throw inside the calibrator below.
  const int tag = static_cast<int>(report.tag_id) - 1;
  if (tag < 0 || tag >= num_tags_ || report.antenna < 0 ||
      report.antenna >= config_.num_antennas || report.channel < 0 ||
      report.channel >= rf::kNumChannels) {
    ++stats_.invalid_dropped;
    return closed;
  }

  // Same calibration application as FrameBuilder::build (Eq. 1).
  double psi = report.phase_rad;
  if (calibrator_ != nullptr) {
    psi = calibrator_->apply(report.tag_id, report.antenna, report.channel, psi);
  }
  TagAccum& acc = tags_[static_cast<std::size_t>(tag)];
  const auto ant = static_cast<std::size_t>(report.antenna);
  acc.phases[ant].push_back(psi);
  acc.amplitudes[ant].push_back(core::rssi_to_amplitude(report.rssi_dbm));
  acc.rssis[ant].push_back(report.rssi_dbm);
  ++stats_.reports;

  // Complete every aligned snapshot this reading unlocked: snapshot k exists
  // once each antenna has >= k+1 readings. Completing them here — instead of
  // at window close — is what lets the covariance absorb them as rank-1
  // updates in arrival order (the same order the batch loop uses, hence the
  // bitwise contract).
  const auto num_ant = static_cast<std::size_t>(config_.num_antennas);
  std::size_t min_count = acc.phases[0].size();
  for (std::size_t a = 1; a < num_ant; ++a) {
    min_count = std::min(min_count, acc.phases[a].size());
  }
  while (acc.pushed < min_count) {
    std::vector<dsp::cdouble> snap(num_ant);
    for (std::size_t a = 0; a < num_ant; ++a) {
      snap[a] = std::polar(acc.amplitudes[a][acc.pushed], acc.phases[a][acc.pushed]);
    }
    acc.cov.push(snap);
    acc.snapshots.push_back(std::move(snap));
    ++acc.pushed;
    ++stats_.snapshots;
  }
  return closed;
}

std::vector<core::SpectrumFrame> StreamAssembler::flush() {
  std::vector<core::SpectrumFrame> closed;
  if (!started_) return closed;
  closed.push_back(close_window());
  ++current_window_;
  return closed;
}

core::SpectrumFrame StreamAssembler::close_window() {
  M2AI_OBS_SPAN("serve.frame");
  // Mirrors FrameBuilder::make_frame row by row; the spectral path differs
  // only in sourcing the covariance from the incremental sum.
  const int num_ant = config_.num_antennas;
  const core::FeatureMode mode = config_.feature_mode;
  core::SpectrumFrame frame;
  frame.has_pseudo = (mode == core::FeatureMode::kM2AI ||
                      mode == core::FeatureMode::kMusicOnly);
  frame.has_aux = (mode != core::FeatureMode::kMusicOnly);
  if (frame.has_pseudo) frame.pseudo = nn::Tensor({num_tags_, rf::kNumAngleBins});
  if (frame.has_aux) frame.aux = nn::Tensor({num_tags_, num_ant});

  for (int tag = 0; tag < num_tags_; ++tag) {
    TagAccum& acc = tags_[static_cast<std::size_t>(tag)];

    if (mode == core::FeatureMode::kPhaseOnly) {
      for (int a = 0; a < num_ant; ++a) {
        const auto& ph = acc.phases[static_cast<std::size_t>(a)];
        if (ph.empty()) continue;
        frame.aux.at(tag, a) = static_cast<float>(
            dsp::wrap_2pi(dsp::circular_mean(ph)) / (2.0 * M_PI));
      }
      continue;
    }
    if (mode == core::FeatureMode::kRssiOnly) {
      for (int a = 0; a < num_ant; ++a) {
        const auto& r = acc.rssis[static_cast<std::size_t>(a)];
        if (r.empty()) continue;
        double s = 0.0;
        for (double v : r) s += v;
        frame.aux.at(tag, a) =
            static_cast<float>((s / static_cast<double>(r.size()) + 90.0) / 60.0);
      }
      continue;
    }

    // Spectral modes: same skip rule as the batch path — fewer than two
    // aligned snapshots leaves a zero row.
    if (acc.pushed < 2) continue;
    if (frame.has_pseudo) {
      const dsp::MusicResult music = builder_.music().estimate_from_covariance(
          acc.cov.covariance(config_.covariance));
      for (int bin = 0; bin < rf::kNumAngleBins; ++bin) {
        frame.pseudo.at(tag, bin) =
            static_cast<float>(music.spectrum[static_cast<std::size_t>(bin)]);
      }
    }
    if (frame.has_aux) {
      const std::vector<double> period = dsp::averaged_periodogram(acc.snapshots);
      for (int a = 0; a < num_ant; ++a) {
        frame.aux.at(tag, a) =
            core::compress_power(period[static_cast<std::size_t>(a)]);
      }
    }
  }
  reset_accums();
  ++stats_.frames;
  return frame;
}

void StreamAssembler::reset_accums() {
  for (TagAccum& acc : tags_) {
    for (auto& v : acc.phases) v.clear();
    for (auto& v : acc.amplitudes) v.clear();
    for (auto& v : acc.rssis) v.clear();
    acc.snapshots.clear();
    acc.cov.clear();
    acc.pushed = 0;
  }
}

}  // namespace m2ai::serve
