// A Scene binds an environment, the persons acting in it, the tags they
// wear, and the reader's antenna-array geometry — everything the reader
// needs to synthesize backscatter reports at a given instant.
#pragma once

#include <complex>
#include <cstdint>
#include <optional>
#include <vector>

#include "rf/constants.hpp"
#include "sim/environment.hpp"
#include "sim/person.hpp"
#include "sim/propagation.hpp"

namespace m2ai::sim {

// Reader antenna-array geometry: a horizontal ULA along `axis` (unit 2-D
// vector) centered at `center` (3-D; the paper mounts it at 1.25 m height).
struct ArrayGeometry {
  Vec3 center{0.0, 0.0, 1.25};
  rf::Vec2 axis{1.0, 0.0};
  int num_antennas = 4;
  double separation_m = rf::kAntennaSeparationM;

  Vec3 antenna_position(int index) const;
  rf::Vec2 origin2d() const { return {center.x, center.y}; }
};

struct TagInfo {
  std::uint32_t id = 0;
  int person_index = 0;
  BodySite site = BodySite::kHand;
};

class Scene {
 public:
  // Attaches `tags_per_person` tags (hand, then arm, then shoulder) to every
  // person. Tag ids are dense, starting at 1.
  Scene(Environment env, std::vector<Person> persons, ArrayGeometry array,
        int tags_per_person = 3, PropagationOptions prop_options = {});

  const Environment& environment() const { return env_; }
  const ArrayGeometry& array() const { return array_; }
  const std::vector<Person>& persons() const { return persons_; }
  const std::vector<TagInfo>& tags() const { return tags_; }
  const PropagationModel& propagation() const { return propagation_; }

  // Tag position at time t; `motion_frozen` pins every person to their t=0
  // pose (used for the stationary calibration bootstrap).
  Vec3 tag_position(std::size_t tag_index, double t_sec) const;

  // Every person's body cylinder at time t.
  std::vector<BodyDisk> bodies_at(double t_sec) const;

  void set_motion_frozen(bool frozen) { motion_frozen_ = frozen; }
  bool motion_frozen() const { return motion_frozen_; }

  // Multipath rays from a tag to an antenna right now.
  std::vector<PathContribution> paths_at(std::size_t tag_index, int antenna,
                                         double t_sec) const;

  // The channel from a tag to an antenna right now at `wavelength_m`:
  // bitwise propagation().channel(paths_at(tag_index, antenna, t_sec), λ),
  // summed ray by ray without the path vector or any AoA. nullopt where
  // paths_at would be empty. `bodies` is scratch the call overwrites; one
  // vector reused across calls keeps them allocation-free.
  std::optional<std::complex<double>> channel_at(std::size_t tag_index, int antenna,
                                                 double t_sec, double wavelength_m,
                                                 std::vector<BodyDisk>& bodies) const;

 private:
  // One tag -> antenna link at an instant, as paths_at and channel_at feed
  // it to the propagation model.
  struct Link {
    Vec3 tag;
    Vec3 antenna;
    double tag_gain = 1.0;
    int owner = 0;
  };
  // Evaluates the wearer's pose once for the tag's position, its gain and
  // its body cylinder, and every other person's cylinder once, into
  // `bodies`.
  Link link_at(std::size_t tag_index, int antenna, double t_sec,
               std::vector<BodyDisk>& bodies) const;

  Environment env_;
  std::vector<Person> persons_;
  ArrayGeometry array_;
  std::vector<TagInfo> tags_;
  PropagationModel propagation_;
  bool motion_frozen_ = false;
};

}  // namespace m2ai::sim
