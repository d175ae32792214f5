#include "sim/person.hpp"

#include <cmath>

namespace m2ai::sim {

const char* body_site_name(BodySite site) {
  switch (site) {
    case BodySite::kHand: return "hand";
    case BodySite::kArm: return "arm";
    case BodySite::kShoulder: return "shoulder";
  }
  return "?";
}

BodyParams BodyParams::random_volunteer(util::Rng& rng) {
  BodyParams p;
  p.height_m = rng.uniform(1.55, 1.90);
  p.body_radius_m = rng.uniform(0.16, 0.26);
  p.arm_length_m = 0.36 * p.height_m + rng.uniform(-0.03, 0.03);
  p.speed_scale = rng.uniform(0.85, 1.18);
  p.amplitude_scale = rng.uniform(0.85, 1.18);
  p.phase_offset = rng.uniform(0.0, 2.0 * M_PI);
  return p;
}

Person::Person(BodyParams params, rf::Vec2 start, double heading_rad, MotionSpec motion)
    : params_(params), start_(start), heading_(heading_rad), motion_(motion) {}

namespace {
// Smooth 0->1 transition used for the one-shot sit-down gait.
double smooth_step(double t, double t0, double duration) {
  const double u = (t - t0) / duration;
  if (u <= 0.0) return 0.0;
  if (u >= 1.0) return 1.0;
  return u * u * (3.0 - 2.0 * u);
}
}  // namespace

double Person::heading_at(double t_sec) const {
  if (motion_.torso == TorsoType::kTurn) {
    // Full rotation roughly every 1/torso_freq seconds.
    return heading_ + 2.0 * M_PI * motion_.torso_freq_hz * params_.speed_scale * t_sec;
  }
  return heading_;
}

rf::Vec2 Person::center_at(double t_sec) const {
  const double w = 2.0 * M_PI * motion_.gait_freq_hz * params_.speed_scale;
  const double amp = motion_.gait_amplitude_m * params_.amplitude_scale;
  const double ph = params_.phase_offset;
  const rf::Vec2 fwd{std::cos(heading_), std::sin(heading_)};
  const rf::Vec2 side{-fwd.y, fwd.x};

  switch (motion_.gait) {
    case GaitType::kStand: {
      // Gentle postural sway, a few centimetres.
      const double sway = 0.03 * params_.amplitude_scale;
      return start_ + fwd * (sway * std::sin(0.4 * w * t_sec + ph)) +
             side * (sway * std::cos(0.3 * w * t_sec + ph));
    }
    case GaitType::kWalkLine:
      return start_ + fwd * (amp * std::sin(w * t_sec + ph));
    case GaitType::kWalkLateral:
      return start_ + side * (amp * std::sin(w * t_sec + ph));
    case GaitType::kWalkCircle: {
      // Orbit a point `amp` ahead of the start pose.
      const rf::Vec2 orbit_center = start_ + fwd * amp;
      const double ang = w * t_sec + ph;
      return orbit_center + rf::Vec2{amp * std::cos(ang), amp * std::sin(ang)};
    }
    case GaitType::kSitDown:
      return start_;  // height handled in height_scale()
  }
  return start_;
}

double Person::height_scale(double t_sec) const {
  double scale = 1.0;
  const double speed = params_.speed_scale;
  if (motion_.gait == GaitType::kSitDown) {
    // Sit at ~1.5 s, taking ~1 s; seated height about 0.62 of standing.
    scale *= 1.0 - 0.38 * smooth_step(t_sec, 1.5 / speed, 1.0 / speed);
  }
  if (motion_.torso == TorsoType::kSquat) {
    const double w = 2.0 * M_PI * motion_.torso_freq_hz * speed;
    // 0..0.3 compression, smooth periodic squat.
    scale *= 1.0 - 0.15 * params_.amplitude_scale *
                       (1.0 - std::cos(w * t_sec + params_.phase_offset));
  }
  if (motion_.torso == TorsoType::kJump) {
    // Crouch before each hop (the negative half-cycle of the hop phase).
    const double w = 2.0 * M_PI * motion_.torso_freq_hz * params_.speed_scale;
    const double s = std::sin(w * t_sec + params_.phase_offset);
    if (s < 0.0) scale *= 1.0 + 0.12 * params_.amplitude_scale * s;
  }
  return scale;
}

double Person::jump_offset(double t_sec) const {
  if (motion_.torso != TorsoType::kJump) return 0.0;
  const double w = 2.0 * M_PI * motion_.torso_freq_hz * params_.speed_scale;
  const double s = std::sin(w * t_sec + params_.phase_offset);
  // Only the positive half-cycle lifts the body off the ground.
  return s > 0.0 ? 0.30 * params_.amplitude_scale * s : 0.0;
}

double Person::bend_angle(double t_sec) const {
  if (motion_.torso != TorsoType::kBend) return 0.0;
  const double w = 2.0 * M_PI * motion_.torso_freq_hz * params_.speed_scale;
  // 0 .. ~60 degrees forward bend.
  return 0.5 * params_.amplitude_scale *
         (1.0 - std::cos(w * t_sec + params_.phase_offset));
}

Person::Pose Person::pose_at(double t_sec) const {
  return Pose{center_at(t_sec), heading_at(t_sec), height_scale(t_sec),
              jump_offset(t_sec), bend_angle(t_sec)};
}

double Person::tag_gain(BodySite site, double t_sec, rf::Vec2 toward) const {
  return tag_gain(site, pose_at(t_sec), t_sec, toward);
}

double Person::tag_gain(BodySite site, const Pose& pose, double t_sec,
                        rf::Vec2 toward) const {
  const rf::Vec2 c = pose.center;
  const double heading = pose.heading;

  // Wearer shadowing: tags sit on the front of the body; facing away from
  // the receiver attenuates the backscatter by up to ~12 dB.
  const rf::Vec2 fwd{std::cos(heading), std::sin(heading)};
  const rf::Vec2 dir = (toward - c).normalized();
  const double facing = fwd.dot(dir);  // 1 facing receiver, -1 facing away
  double gain = 0.25 + 0.75 * (0.5 + 0.5 * facing);

  // Posture-driven tilt.
  const double speed = params_.speed_scale;
  if (motion_.torso == TorsoType::kSquat) {
    const double w = 2.0 * M_PI * motion_.torso_freq_hz * speed;
    const double compression =
        0.5 * (1.0 - std::cos(w * t_sec + params_.phase_offset));  // 0..1
    gain *= 1.0 - 0.45 * compression;
  }
  if (motion_.torso == TorsoType::kJump) {
    // Sharp dips while airborne: the whole body (and every tag on it) is in
    // free motion, far off its polarization-matched stance.
    gain *= 1.0 - 1.8 * pose.jump;
  }
  {
    const double bend = pose.bend;
    if (bend > 0.0 && site != BodySite::kHand) {
      gain *= std::max(0.25, std::cos(1.2 * bend));
    }
  }
  // Limb swings rock the hand/arm tag through polarization mismatch. The
  // modulation is asymmetric (tilting toward one side mismatches more than
  // the other), so its fundamental sits at the limb frequency itself.
  if (motion_.limb != LimbType::kNone && site != BodySite::kShoulder) {
    const double lw = 2.0 * M_PI * motion_.limb_freq_hz * speed;
    const double swing = std::sin(lw * t_sec + params_.phase_offset);
    const double depth = (site == BodySite::kHand) ? 0.40 : 0.20;
    gain *= 1.0 - depth * (0.5 + 0.5 * swing);
  }
  if (motion_.gait == GaitType::kSitDown) {
    // Seated posture slouches the tag plane slightly off broadside.
    gain *= 1.0 - 0.25 * smooth_step(t_sec, 1.5 / speed, 1.0 / speed);
  }
  return std::max(gain, 0.05);
}

Vec3 Person::tag_position(BodySite site, double t_sec) const {
  return tag_position(site, pose_at(t_sec), t_sec);
}

Vec3 Person::tag_position(BodySite site, const Pose& pose, double t_sec) const {
  const rf::Vec2 c = pose.center;
  const double heading = pose.heading;
  const rf::Vec2 fwd{std::cos(heading), std::sin(heading)};
  const rf::Vec2 side{-fwd.y, fwd.x};
  const double h = params_.height_m;
  const double hs = pose.height_scale;
  const double jump = pose.jump;
  const double bend = pose.bend;

  // Base (upright, motionless) site offsets in the body frame.
  double lateral = 0.0, forward = 0.0, height = 0.0;
  switch (site) {
    case BodySite::kShoulder:
      lateral = 0.15;
      forward = 0.0;
      height = 0.82 * h;
      break;
    case BodySite::kArm:  // upper arm / elbow
      lateral = 0.24;
      forward = 0.02;
      height = 0.68 * h;
      break;
    case BodySite::kHand:
      lateral = 0.28;
      forward = 0.10;
      height = 0.52 * h;
      break;
  }

  // Forward bend pivots the upper body about hip height.
  const double hip = 0.55 * h;
  if (bend > 0.0 && height > hip) {
    const double lever = height - hip;
    forward += lever * std::sin(bend);
    height = hip + lever * std::cos(bend);
  }

  // Limb motion.
  const double lw = 2.0 * M_PI * motion_.limb_freq_hz * params_.speed_scale;
  const double lph = params_.phase_offset;
  const double arm = params_.arm_length_m * params_.amplitude_scale;
  const double limb_gain = (site == BodySite::kHand) ? 1.0
                           : (site == BodySite::kArm) ? 0.45
                                                      : 0.08;
  switch (motion_.limb) {
    case LimbType::kNone:
      break;
    case LimbType::kWave:
      lateral += limb_gain * 0.45 * arm * std::sin(lw * t_sec + lph);
      height += limb_gain * 0.25 * arm * std::abs(std::sin(lw * t_sec + lph));
      break;
    case LimbType::kPushPull:
      forward += limb_gain * 0.55 * arm * (0.5 + 0.5 * std::sin(lw * t_sec + lph));
      break;
    case LimbType::kSwingArms:
      forward += limb_gain * 0.50 * arm * std::sin(lw * t_sec + lph);
      break;
    case LimbType::kRaiseLower:
      height += limb_gain * 0.80 * arm * (0.5 + 0.5 * std::sin(lw * t_sec + lph));
      break;
  }

  const rf::Vec2 xy = c + side * lateral + fwd * forward;
  return Vec3{xy.x, xy.y, height * hs + jump};
}

}  // namespace m2ai::sim
