#include "sim/propagation.hpp"

#include <cmath>

namespace m2ai::sim {

namespace {

// Free-space one-way amplitude gain at distance L (Friis, amplitude form),
// normalized so gain(1 m) = 1.
double friis_gain(double length_m) { return 1.0 / std::max(length_m, 0.5); }

double db_to_amplitude(double loss_db) { return std::pow(10.0, -loss_db / 20.0); }

// 3-D length of a path whose 2-D ground projection has length `ground_m`
// and whose endpoints differ in height by `dz`.
double path_length_3d(double ground_m, double dz) {
  return std::sqrt(ground_m * ground_m + dz * dz);
}

// Round-trip phase along a ray's own path (see header). channel() and
// channel_sum() share this one definition, so both sum the same bits.
std::complex<double> ray_phasor(double length_m, double wavelength_m) {
  const double phase = -2.0 * M_PI * (2.0 * length_m) / wavelength_m;
  return std::polar(1.0, phase);
}

// Blocker counts with a precomputed body-loss amplitude; larger counts
// (more than seven people crossing one ray) compute theirs on the fly.
constexpr int kBodyAmplitudeTable = 16;

}  // namespace

PropagationModel::PropagationModel(const Environment& env, PropagationOptions options)
    : env_(env), options_(options) {
  for (const rf::Wall& wall : env_.walls) {
    wall_amplitude_.push_back(db_to_amplitude(wall.reflection_loss_db));
  }
  for (const Scatterer& sc : env_.scatterers) {
    scatterer_amplitude_.push_back(db_to_amplitude(sc.scatter_loss_db));
  }
  for (int b = 0; b < kBodyAmplitudeTable; ++b) {
    body_amplitude_.push_back(db_to_amplitude(options_.body_loss_db * b));
  }
}

double PropagationModel::body_amplitude(int blockers) const {
  return blockers < kBodyAmplitudeTable
             ? body_amplitude_[static_cast<std::size_t>(blockers)]
             : db_to_amplitude(options_.body_loss_db * blockers);
}

int PropagationModel::count_blockers(rf::Vec2 a, rf::Vec2 b,
                                     const std::vector<BodyDisk>& bodies,
                                     int skip_person_near_a) const {
  int blockers = 0;
  for (const BodyDisk& body : bodies) {
    // Never let the wearer's own cylinder block the segment right at the
    // tag: the tag sits on the body surface.
    if (body.person_index == skip_person_near_a &&
        rf::distance(a, body.center) < body.radius + 0.15) {
      continue;
    }
    if (rf::segment_hits_circle(a, b, body.center, body.radius)) ++blockers;
  }
  return blockers;
}

template <typename Visit>
void PropagationModel::for_each_ray(const Vec3& tag, const Vec3& antenna,
                                    const std::vector<BodyDisk>& bodies,
                                    int owner_index, Visit&& visit) const {
  const rf::Vec2 tag2{tag.x, tag.y};
  const rf::Vec2 ant2{antenna.x, antenna.y};
  const double dz = tag.z - antenna.z;
  const double floor_gain = options_.min_relative_gain;

  auto emit = [&](PathKind kind, double ground_len, double extra_amplitude,
                  rf::Vec2 arrival_from, int blockers) {
    const double len = path_length_3d(ground_len, dz);
    double gain = friis_gain(len) * extra_amplitude;
    gain *= body_amplitude(blockers);
    if (gain < floor_gain) return;
    visit(kind, len, gain, arrival_from, blockers);
  };

  // Direct path; a 0 dB extra loss is an amplitude of exactly 1.
  {
    const int blockers = count_blockers(tag2, ant2, bodies, owner_index);
    emit(PathKind::kDirect, rf::distance(tag2, ant2), 1.0, tag2, blockers);
  }

  // First-order wall reflections: mirror the tag across each wall; the ray
  // antenna -> image crosses the wall at the specular point.
  if (options_.enable_wall_reflections) {
    for (std::size_t w = 0; w < env_.walls.size(); ++w) {
      const rf::Wall& wall = env_.walls[w];
      const rf::Vec2 image = rf::mirror(tag2, wall);
      const auto hit = rf::wall_intersection(ant2, image, wall);
      if (!hit) continue;
      // Occlusion on both legs: tag -> wall point, wall point -> antenna.
      const int blockers = count_blockers(tag2, *hit, bodies, owner_index) +
                           count_blockers(*hit, ant2, bodies, -1);
      const double ground = rf::distance(tag2, *hit) + rf::distance(*hit, ant2);
      // The reflected wave arrives from the direction of the specular point.
      emit(PathKind::kWallReflection, ground, wall_amplitude_[w], *hit, blockers);
    }
  }

  // Scatterer deflections.
  if (options_.enable_scatterers) {
    for (std::size_t i = 0; i < env_.scatterers.size(); ++i) {
      const Scatterer& sc = env_.scatterers[i];
      const int blockers =
          count_blockers(tag2, sc.position, bodies, owner_index) +
          count_blockers(sc.position, ant2, bodies, -1);
      const double ground =
          rf::distance(tag2, sc.position) + rf::distance(sc.position, ant2);
      emit(PathKind::kScatterer, ground, scatterer_amplitude_[i], sc.position,
           blockers);
    }
  }
}

std::vector<PathContribution> PropagationModel::paths(
    const Vec3& tag, const Vec3& antenna, const std::vector<BodyDisk>& bodies,
    int owner_index, rf::Vec2 array_origin, rf::Vec2 array_axis) const {
  std::vector<PathContribution> out;
  for_each_ray(tag, antenna, bodies, owner_index,
               [&](PathKind kind, double len, double gain, rf::Vec2 arrival_from,
                   int blockers) {
                 PathContribution p;
                 p.kind = kind;
                 p.length_m = len;
                 p.gain = gain;
                 p.aoa_deg = rf::bearing_deg(array_origin, array_axis, arrival_from);
                 p.blocked_by = blockers;
                 out.push_back(p);
               });
  return out;
}

std::complex<double> PropagationModel::channel(
    const std::vector<PathContribution>& paths, double wavelength_m) const {
  std::complex<double> h{0.0, 0.0};
  for (const PathContribution& p : paths) {
    h += p.gain * ray_phasor(p.length_m, wavelength_m);
  }
  return h;
}

std::optional<std::complex<double>> PropagationModel::channel_sum(
    const Vec3& tag, const Vec3& antenna, const std::vector<BodyDisk>& bodies,
    int owner_index, double tag_gain, double wavelength_m) const {
  std::complex<double> h{0.0, 0.0};
  bool any_ray = false;
  for_each_ray(tag, antenna, bodies, owner_index,
               [&](PathKind, double len, double gain, rf::Vec2, int) {
                 const double g = gain * tag_gain;
                 h += g * ray_phasor(len, wavelength_m);
                 any_ray = true;
               });
  if (!any_ray) return std::nullopt;
  return h;
}

}  // namespace m2ai::sim
