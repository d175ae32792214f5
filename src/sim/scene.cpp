#include "sim/scene.hpp"

#include <stdexcept>

namespace m2ai::sim {

Vec3 ArrayGeometry::antenna_position(int index) const {
  // Elements centered on `center`, spread along `axis`.
  const double offset =
      (static_cast<double>(index) - 0.5 * static_cast<double>(num_antennas - 1)) *
      separation_m;
  return Vec3{center.x + axis.x * offset, center.y + axis.y * offset, center.z};
}

Scene::Scene(Environment env, std::vector<Person> persons, ArrayGeometry array,
             int tags_per_person, PropagationOptions prop_options)
    : env_(std::move(env)),
      persons_(std::move(persons)),
      array_(array),
      propagation_(env_, prop_options) {
  if (tags_per_person < 1 || tags_per_person > kNumBodySites) {
    throw std::out_of_range("Scene: 1..3 tags per person");
  }
  std::uint32_t next_id = 1;
  for (std::size_t p = 0; p < persons_.size(); ++p) {
    for (int s = 0; s < tags_per_person; ++s) {
      tags_.push_back(TagInfo{next_id++, static_cast<int>(p), static_cast<BodySite>(s)});
    }
  }
}

Vec3 Scene::tag_position(std::size_t tag_index, double t_sec) const {
  const TagInfo& tag = tags_.at(tag_index);
  const double t = motion_frozen_ ? 0.0 : t_sec;
  return persons_[static_cast<std::size_t>(tag.person_index)].tag_position(tag.site, t);
}

std::vector<BodyDisk> Scene::bodies_at(double t_sec) const {
  const double t = motion_frozen_ ? 0.0 : t_sec;
  std::vector<BodyDisk> disks;
  disks.reserve(persons_.size());
  for (std::size_t p = 0; p < persons_.size(); ++p) {
    disks.push_back(BodyDisk{persons_[p].center_at(t), persons_[p].body_radius(),
                             static_cast<int>(p)});
  }
  return disks;
}

Scene::Link Scene::link_at(std::size_t tag_index, int antenna, double t_sec,
                           std::vector<BodyDisk>& bodies) const {
  const TagInfo& info = tags_.at(tag_index);
  const double t = motion_frozen_ ? 0.0 : t_sec;
  const Person& owner = persons_[static_cast<std::size_t>(info.person_index)];
  const Person::Pose pose = owner.pose_at(t);
  bodies.clear();
  for (std::size_t p = 0; p < persons_.size(); ++p) {
    const rf::Vec2 center = static_cast<int>(p) == info.person_index
                                ? pose.center
                                : persons_[p].center_at(t);
    bodies.push_back(BodyDisk{center, persons_[p].body_radius(), static_cast<int>(p)});
  }
  const Vec3 ant = array_.antenna_position(antenna);
  // Tag orientation / wearer shadowing modulates the tag's backscatter as a
  // whole (it changes what the tag radiates, not a single ray).
  return Link{owner.tag_position(info.site, pose, t), ant,
              owner.tag_gain(info.site, pose, t, rf::Vec2{ant.x, ant.y}),
              info.person_index};
}

std::vector<PathContribution> Scene::paths_at(std::size_t tag_index, int antenna,
                                              double t_sec) const {
  std::vector<BodyDisk> bodies;
  const Link link = link_at(tag_index, antenna, t_sec, bodies);
  std::vector<PathContribution> paths =
      propagation_.paths(link.tag, link.antenna, bodies, link.owner,
                         array_.origin2d(), array_.axis);
  for (PathContribution& p : paths) p.gain *= link.tag_gain;
  return paths;
}

std::optional<std::complex<double>> Scene::channel_at(
    std::size_t tag_index, int antenna, double t_sec, double wavelength_m,
    std::vector<BodyDisk>& bodies) const {
  const Link link = link_at(tag_index, antenna, t_sec, bodies);
  return propagation_.channel_sum(link.tag, link.antenna, bodies, link.owner,
                                  link.tag_gain, wavelength_m);
}

}  // namespace m2ai::sim
