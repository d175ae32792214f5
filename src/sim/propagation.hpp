// Multipath propagation between a tag and a reader antenna.
//
// Paths modelled per (tag, antenna) pair:
//   * the direct (line-of-sight) path;
//   * first-order specular reflections off each wall (image method);
//   * deflections via furniture scatterers (tag -> scatterer -> antenna).
//
// Any path segment passing through a person's body cylinder is attenuated
// (body occlusion), which is exactly the Fig. 2(b) effect: a moving person
// blocks a path, lowering its peak and perturbing the others.
//
// Following the paper's own signal model (Sec. III-B treats the tag as a
// narrowband source with per-path one-way geometry, phases counted round
// trip), the channel for antenna n is
//     h_n = sum_p g_p * exp(-j * 2*pi * (2 * L_p) / lambda),
// i.e. each ray carries the round-trip phase of its own path. Cross-path
// forward/backward products of a full monostatic model are second-order and
// omitted, matching Eqs. 3-6 of the paper (see DESIGN.md).
#pragma once

#include <complex>
#include <optional>
#include <vector>

#include "rf/geometry.hpp"
#include "sim/environment.hpp"
#include "sim/person.hpp"

namespace m2ai::sim {

enum class PathKind { kDirect, kWallReflection, kScatterer };

struct PathContribution {
  PathKind kind = PathKind::kDirect;
  double length_m = 0.0;    // one-way 3-D path length
  double gain = 0.0;        // linear amplitude gain (includes occlusion)
  double aoa_deg = 0.0;     // arrival angle at the array (ground truth)
  int blocked_by = 0;       // number of body cylinders intersected
};

// Snapshot of every body cylinder in the scene at one instant.
struct BodyDisk {
  rf::Vec2 center;
  double radius = 0.0;
  int person_index = -1;
};

struct PropagationOptions {
  // Extra attenuation per intersected body cylinder (dB). ~10 dB is typical
  // for a human torso at 900 MHz.
  double body_loss_db = 11.0;
  // Paths weaker than this fraction of the direct free-space gain at 1 m
  // are dropped.
  double min_relative_gain = 1e-4;
  bool enable_wall_reflections = true;
  bool enable_scatterers = true;
};

class PropagationModel {
 public:
  PropagationModel(const Environment& env, PropagationOptions options = {});

  // All propagation paths from `tag` to `antenna` given the current body
  // disks. `owner_index` is the person wearing the tag: their own cylinder
  // never occludes the segment end at the tag (the tag sits on their body),
  // but can still occlude scatterer legs on the far side.
  std::vector<PathContribution> paths(const Vec3& tag, const Vec3& antenna,
                                      const std::vector<BodyDisk>& bodies,
                                      int owner_index,
                                      rf::Vec2 array_origin,
                                      rf::Vec2 array_axis) const;

  // Complex one-way-summed channel with round-trip phases at `wavelength`.
  std::complex<double> channel(const std::vector<PathContribution>& paths,
                               double wavelength_m) const;

  // The same rays as paths(), each scaled by `tag_gain`, summed straight into
  // the channel: bitwise channel(paths(...) with every gain *= tag_gain, λ).
  // Computes no AoA and allocates nothing. nullopt when no ray clears the
  // floor (paths() would be empty).
  std::optional<std::complex<double>> channel_sum(const Vec3& tag, const Vec3& antenna,
                                                  const std::vector<BodyDisk>& bodies,
                                                  int owner_index, double tag_gain,
                                                  double wavelength_m) const;

  const Environment& environment() const { return env_; }
  const PropagationOptions& options() const { return options_; }

 private:
  // The one ray enumerator behind paths() and channel_sum(): the direct ray,
  // then each wall, then each scatterer. Calls
  // visit(kind, length_m, gain, arrival_from, blockers) for every ray whose
  // gain clears the floor.
  template <typename Visit>
  void for_each_ray(const Vec3& tag, const Vec3& antenna,
                    const std::vector<BodyDisk>& bodies, int owner_index,
                    Visit&& visit) const;

  int count_blockers(rf::Vec2 a, rf::Vec2 b, const std::vector<BodyDisk>& bodies,
                     int skip_person_near_a) const;
  double body_amplitude(int blockers) const;

  Environment env_;
  PropagationOptions options_;
  // Constant per-ray losses as linear amplitudes, fixed at construction:
  // per wall, per scatterer, and per body-blocker count.
  std::vector<double> wall_amplitude_;
  std::vector<double> scatterer_amplitude_;
  std::vector<double> body_amplitude_;
};

}  // namespace m2ai::sim
