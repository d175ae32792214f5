// Model of a commercial UHF reader (Impinj Speedway R420 class) speaking an
// LLRP-style report interface.
//
// Faithful to Sec. V of the paper:
//   * 4 antenna ports in time-division multiplexing, 25 ms inventory slot;
//   * FCC frequency hopping: 50 channels, 902.75-927.25 MHz, 500 kHz steps,
//     400 ms dwell (all channels visited once per 20 s);
//   * reported phase carries (a) a per-(tag, antenna, channel) offset that
//     is linear in frequency plus a small fixed ripple (Fig. 3), (b) a
//     random pi ambiguity per read, (c) 12-bit quantization, (d) noise;
//   * RSSI in dBm with 0.5 dB granularity and noise;
//   * reads are dropped when the backscatter power falls below the tag's
//     energy-harvesting sensitivity (weak-signal dropout).
#pragma once

#include <cstdint>
#include <vector>

#include "rf/channel_plan.hpp"
#include "sim/scene.hpp"
#include "util/rng.hpp"

namespace m2ai::sim {

// One LLRP tag observation, the only interface the DSP pipeline sees.
// Mirrors the low-level report fields Sec. III of the paper names: phase,
// RSSI, and Doppler shift.
struct TagReport {
  double time_sec = 0.0;
  std::uint32_t tag_id = 0;
  int antenna = 0;        // port index, 0-based
  int channel = 0;        // hop channel index, 0-based
  double phase_rad = 0.0; // reported phase in [0, 2*pi)
  double rssi_dbm = 0.0;
  // Doppler shift (Hz) estimated over the read burst: -2*v_radial/lambda
  // for the dominant ray, quantized to the Impinj report granularity
  // (1/16 Hz).
  double doppler_hz = 0.0;
};

// Quantize a wrapped phase to the Impinj report granularity (1/4096 turn).
// A phase just under 2*pi rounds up to step 4096 — exactly 2*pi — which
// must wrap back to step 0 so the result is always in [0, 2*pi), even if a
// caller skips a later wrap_2pi. Input must already be in [0, 2*pi].
double quantize_phase(double phase_rad);

struct ReaderConfig {
  double slot_sec = rf::kAntennaSlotSec;
  double dwell_sec = rf::kDwellTimeSec;
  int reads_per_tag_per_slot = 2;

  bool hopping = true;          // false pins the reader to the common channel
  bool pi_ambiguity = true;
  // Doppler estimation triples the propagation evaluations per read; turn
  // it off when the consumer only needs phase/RSSI.
  bool report_doppler = true;
  bool quantize = true;         // 12-bit phase, 0.5 dB RSSI
  double phase_noise_std_rad = 0.08;
  double rssi_noise_std_db = 0.6;

  // Maps the dimensionless simulated channel magnitude to dBm.
  double rssi_reference_dbm = -38.0;
  // Below this reported power the tag fails to respond with rising
  // probability (fully dead 12 dB further down).
  double sensitivity_dbm = -82.0;

  // Per-tag hardware phase response (Fig. 3): offset(tag, ant, ch) =
  // slope * (f_ch - f_r) + intercept + ripple(ch). Slope drawn uniformly
  // from [min, max] rad/MHz per (tag, antenna).
  double offset_slope_min_rad_per_mhz = 0.25;
  double offset_slope_max_rad_per_mhz = 0.90;
  double offset_ripple_std_rad = 0.05;
};

class Reader {
 public:
  // `max_tags` sizes the per-tag hardware offset tables; `rng` seeds the
  // hop sequence, the offset draw, and all measurement noise.
  Reader(ReaderConfig config, int num_antennas, int max_tags, util::Rng rng);

  // Simulate inventory over [t_begin, t_end); returns reports in time order.
  // Throws std::invalid_argument unless t_begin is finite and >= 0 and t_end
  // is finite.
  std::vector<TagReport> run(const Scene& scene, double t_begin, double t_end);

  // Channel in use at time t (common channel when hopping is disabled).
  int channel_at(double t_sec) const;
  // Antenna port active at time t.
  int antenna_at(double t_sec) const;

  const ReaderConfig& config() const { return config_; }

  // Ground-truth hardware offset (for tests).
  double hardware_offset(std::uint32_t tag_id, int antenna, int channel) const;

 private:
  ReaderConfig config_;
  int num_antennas_;
  rf::HopSequence hops_;
  util::Rng rng_;
  // offset tables indexed [tag_id-1][antenna][channel]
  std::vector<std::vector<std::vector<double>>> offsets_;
};

}  // namespace m2ai::sim
