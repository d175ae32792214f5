#include "sim/reader.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "dsp/phase.hpp"
#include "obs/metrics.hpp"
#include "rf/constants.hpp"

namespace m2ai::sim {

double quantize_phase(double phase_rad) {
  const double step = 2.0 * M_PI / 4096.0;
  double q = std::round(phase_rad / step) * step;
  // step is 2*pi scaled by a power of two, so 4096 steps is exactly 2*pi:
  // wrap the boundary case to step 0 (bitwise what wrap_2pi would return).
  if (q >= 2.0 * M_PI) q = 0.0;
  return q;
}

Reader::Reader(ReaderConfig config, int num_antennas, int max_tags, util::Rng rng)
    : config_(config), num_antennas_(num_antennas), hops_(rng.fork()), rng_(rng.fork()) {
  if (num_antennas < 1) throw std::invalid_argument("Reader: need >= 1 antenna");
  // Draw the fixed hardware phase response per (tag, antenna): a linear
  // slope over frequency plus a small per-channel ripple (Fig. 3).
  util::Rng hw = rng.fork();
  offsets_.resize(static_cast<std::size_t>(max_tags));
  for (auto& per_tag : offsets_) {
    // Slope and intercept are properties of the tag's antenna response and
    // the reader oscillator, shared across the reader's (cable-matched)
    // ports; per-port mismatch is a small residual. Keeping the large terms
    // common across antennas preserves the inter-antenna coherence that AoA
    // estimation relies on — matching a calibrated commercial array.
    const double slope = hw.uniform(config_.offset_slope_min_rad_per_mhz,
                                    config_.offset_slope_max_rad_per_mhz) *
                         (hw.bernoulli(0.5) ? 1.0 : -1.0);
    const double intercept = hw.uniform(0.0, 2.0 * M_PI);
    per_tag.resize(static_cast<std::size_t>(num_antennas));
    for (auto& per_ant : per_tag) {
      const double port_mismatch = hw.normal(0.0, 0.05);
      per_ant.resize(rf::kNumChannels);
      for (int ch = 0; ch < rf::kNumChannels; ++ch) {
        const double df_mhz =
            (rf::channel_frequency_hz(ch) - rf::kCommonFrequencyHz) / 1e6;
        // The reader's pi ambiguity is a per-channel half-cycle offset fixed
        // for the session (Wei & Zhang, MobiCom'16); as a constant it folds
        // into the hardware offset and is removed by Eq. 1 calibration.
        const double half_cycle =
            (config_.pi_ambiguity && hw.bernoulli(0.5)) ? M_PI : 0.0;
        per_ant[static_cast<std::size_t>(ch)] =
            dsp::wrap_2pi(slope * df_mhz + intercept + half_cycle + port_mismatch +
                          hw.normal(0.0, config_.offset_ripple_std_rad));
      }
    }
  }
}

int Reader::channel_at(double t_sec) const {
  return config_.hopping ? hops_.channel_at(t_sec) : rf::common_channel();
}

int Reader::antenna_at(double t_sec) const {
  // Floor division and a clamp to a defined long, so every finite time maps
  // to a port in [0, num_antennas).
  const long slot = static_cast<long>(
      std::clamp(std::floor(t_sec / config_.slot_sec), -0x1p62, 0x1p62));
  const long port = slot % num_antennas_;
  return static_cast<int>(port < 0 ? port + num_antennas_ : port);
}

double Reader::hardware_offset(std::uint32_t tag_id, int antenna, int channel) const {
  return offsets_.at(tag_id - 1)
      .at(static_cast<std::size_t>(antenna))[static_cast<std::size_t>(channel)];
}

std::vector<TagReport> Reader::run(const Scene& scene, double t_begin, double t_end) {
  if (!std::isfinite(t_begin) || t_begin < 0.0 || !std::isfinite(t_end)) {
    throw std::invalid_argument("Reader::run: t_begin must be finite and >= 0, t_end finite");
  }
  const bool observed = obs::enabled();
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<TagReport> reports;
  const auto& tags = scene.tags();
  const double slot = config_.slot_sec;

  // What a read takes from the channel h.
  struct Response {
    bool any_ray = false;  // false: no ray clears the propagation floor
    double mag = 0.0;
    double power_dbm = 0.0;
    double phase = 0.0;  // arg(h)
  };
  std::vector<BodyDisk> bodies;  // Scene::channel_at scratch
  // A frozen scene pins every pose to t = 0, so h depends only on (tag,
  // antenna, channel): each is computed once and memoized for this call.
  const bool frozen = scene.motion_frozen();
  std::vector<std::optional<Response>> memo(
      frozen ? tags.size() * static_cast<std::size_t>(num_antennas_) * rf::kNumChannels : 0);
  auto respond = [&](std::size_t ti, int antenna, int channel, double t, double lambda) {
    std::optional<Response>* cached = nullptr;
    if (frozen) {
      cached = &memo[(ti * static_cast<std::size_t>(num_antennas_) +
                      static_cast<std::size_t>(antenna)) *
                         rf::kNumChannels +
                     static_cast<std::size_t>(channel)];
      if (*cached) return **cached;
    }
    Response r;
    if (const auto h = scene.channel_at(ti, antenna, t, lambda, bodies)) {
      r.any_ray = true;
      r.mag = std::abs(*h);
      r.power_dbm = config_.rssi_reference_dbm + 20.0 * std::log10(r.mag);
      r.phase = std::arg(*h);
    }
    if (cached) *cached = r;
    return r;
  };

  // The current hop cycle's channel order, expanded once per cycle.
  long cycle = 0;
  std::vector<int> cycle_order;
  auto channel_for = [&](double t) {
    if (!config_.hopping) return rf::common_channel();
    const rf::HopSlot hop = hops_.slot_at(t);
    if (cycle_order.empty() || hop.cycle != cycle) {
      cycle = hop.cycle;
      cycle_order = hops_.cycle_order(cycle);
    }
    return cycle_order[static_cast<std::size_t>(hop.position)];
  };

  for (double slot_start = std::floor(t_begin / slot) * slot; slot_start < t_end;
       slot_start += slot) {
    const int antenna = antenna_at(slot_start + 1e-9);
    for (std::size_t ti = 0; ti < tags.size(); ++ti) {
      for (int read = 0; read < config_.reads_per_tag_per_slot; ++read) {
        // Reads land at jittered instants inside the slot.
        const double frac = (static_cast<double>(read) + rng_.uniform(0.1, 0.9)) /
                            static_cast<double>(config_.reads_per_tag_per_slot);
        const double t = slot_start + frac * slot;
        if (t < t_begin || t >= t_end) continue;

        const int channel = channel_for(t);
        const double lambda = rf::channel_wavelength_m(channel);

        const Response response = respond(ti, antenna, channel, t, lambda);
        if (!response.any_ray || response.mag <= 0.0) continue;
        const double power_dbm = response.power_dbm;

        // Weak-signal dropout: below sensitivity the tag cannot harvest
        // enough energy to respond (Sec. VII: "beyond 6 meters, the RFID tag
        // may not harvest enough energy").
        const double margin_db = power_dbm - config_.sensitivity_dbm;
        if (margin_db < 0.0) {
          const double p_respond = std::max(0.0, 1.0 + margin_db / 12.0);
          if (!rng_.bernoulli(p_respond)) continue;
        }

        double phase = response.phase;
        phase += hardware_offset(tags[ti].id, antenna, channel);
        phase += rng_.normal(0.0, config_.phase_noise_std_rad);
        phase = dsp::wrap_2pi(phase);

        double rssi = power_dbm + rng_.normal(0.0, config_.rssi_noise_std_db);

        // Doppler over the read burst: radial velocity of the dominant
        // (direct) ray via a symmetric finite difference of the channel
        // phase, f_d = dphi/dt / (2*pi). Deterministic — the estimate's
        // noise comes from the motion itself at this granularity.
        double doppler = 0.0;
        if (config_.report_doppler) {
          const double dt = 2e-3;  // ~EPC Gen2 read burst duration
          const Response before = respond(ti, antenna, channel, t - dt / 2, lambda);
          const Response after = respond(ti, antenna, channel, t + dt / 2, lambda);
          if (before.any_ray && after.any_ray) {
            doppler = dsp::wrap_pi(after.phase - before.phase) / dt / (2.0 * M_PI);
          }
        }

        if (config_.quantize) {
          // Impinj reports phase in 1/4096 turn steps, RSSI in 0.5 dB, and
          // Doppler in 1/16 Hz. quantize_phase owns the boundary where a
          // phase just under 2*pi rounds up to exactly 2*pi.
          phase = quantize_phase(phase);
          rssi = std::round(rssi * 2.0) / 2.0;
          doppler = std::round(doppler * 16.0) / 16.0;
        }

        reports.push_back(TagReport{t, tags[ti].id, antenna, channel,
                                    dsp::wrap_2pi(phase), rssi, doppler});
      }
    }
  }
  std::sort(reports.begin(), reports.end(),
            [](const TagReport& a, const TagReport& b) { return a.time_sec < b.time_sec; });
  if (observed) {
    obs::registry().counter("reader.readings").add(reports.size());
    obs::registry().counter("reader.runs").add(1);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();
    if (wall > 0.0) {
      obs::registry().gauge("reader.readings_per_sec").set(
          static_cast<double>(reports.size()) / wall);
    }
  }
  return reports;
}

}  // namespace m2ai::sim
