// Kinematic model of a person ("object of activity identification"): a
// moving body cylinder plus three tag sites (hand, arm, shoulder — the
// paper's default placement) whose 3-D trajectories are produced by a
// layered motion program: gait (whole-body translation), torso modifier
// (squat/jump/bend/turn), and limb motion (hand/arm oscillation).
#pragma once

#include <string>

#include "rf/geometry.hpp"
#include "util/rng.hpp"

namespace m2ai::sim {

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

enum class BodySite { kHand = 0, kArm = 1, kShoulder = 2 };
inline constexpr int kNumBodySites = 3;
const char* body_site_name(BodySite site);

// Whole-body translation.
enum class GaitType {
  kStand,      // in place, gentle sway
  kWalkLine,   // oscillate along the heading direction
  kWalkLateral,  // oscillate perpendicular to the heading
  kWalkCircle,   // orbit around a point in front of the start pose
  kSitDown,      // lower into a chair once, then remain seated
};

// Whole-body posture modifier.
enum class TorsoType {
  kNone,
  kSquat,  // periodic vertical compression
  kJump,   // periodic vertical hops
  kBend,   // periodic forward bend (pick-something-up)
  kTurn,   // continuous rotation in place
};

// Hand/arm motion layered on top.
enum class LimbType {
  kNone,
  kWave,       // lateral hand wave
  kPushPull,   // hand extends/retracts along the heading
  kSwingArms,  // alternating fore-aft arm swing (exercise/march)
  kRaiseLower, // hand raises overhead and lowers
};

struct MotionSpec {
  GaitType gait = GaitType::kStand;
  double gait_freq_hz = 0.25;     // oscillation rate of the gait
  double gait_amplitude_m = 1.0;  // travel amplitude (or circle radius)
  TorsoType torso = TorsoType::kNone;
  double torso_freq_hz = 0.5;
  LimbType limb = LimbType::kNone;
  double limb_freq_hz = 1.2;
};

// Per-volunteer randomization (Sec. VI-A: volunteers vary in age, gender,
// height, weight).
struct BodyParams {
  double height_m = 1.70;       // 1.55 .. 1.90
  double body_radius_m = 0.20;  // occlusion cylinder radius
  double arm_length_m = 0.65;
  double speed_scale = 1.0;     // multiplies all motion frequencies
  double amplitude_scale = 1.0; // multiplies all motion amplitudes
  double phase_offset = 0.0;    // de-synchronizes periodic motions

  static BodyParams random_volunteer(util::Rng& rng);
};

class Person {
 public:
  // The whole-body state at one instant that every tag site shares.
  // Evaluating it once and passing it to the Pose overloads below gives the
  // same bits as the time-only calls, without recomputing the body per call.
  struct Pose {
    rf::Vec2 center;
    double heading = 0.0;
    double height_scale = 1.0;
    double jump = 0.0;
    double bend = 0.0;
  };

  Person(BodyParams params, rf::Vec2 start, double heading_rad, MotionSpec motion);

  Pose pose_at(double t_sec) const;

  // Body cylinder at time t (for occlusion tests).
  rf::Vec2 center_at(double t_sec) const;
  double body_radius() const { return params_.body_radius_m; }

  // 3-D position of a tag site at time t.
  Vec3 tag_position(BodySite site, double t_sec) const;
  Vec3 tag_position(BodySite site, const Pose& pose, double t_sec) const;

  // Effective radiated-gain factor in (0, 1] of a tag toward a receiver at
  // `toward`, at time t. Two real-world effects dominate a passive tag's
  // backscatter power and are modelled here: (a) wearer shadowing — the
  // body blocks a tag on its front when it faces away from the receiver —
  // and (b) posture-driven tag tilt (squat/jump/bend/limb swing rotate the
  // tag's antenna off its polarization-matched plane).
  double tag_gain(BodySite site, double t_sec, rf::Vec2 toward) const;
  double tag_gain(BodySite site, const Pose& pose, double t_sec, rf::Vec2 toward) const;

  const BodyParams& params() const { return params_; }
  const MotionSpec& motion() const { return motion_; }

 private:
  double heading_at(double t_sec) const;
  // Vertical scale from torso/gait state in [0.5, 1]; 1 = upright.
  double height_scale(double t_sec) const;
  double jump_offset(double t_sec) const;
  double bend_angle(double t_sec) const;

  BodyParams params_;
  rf::Vec2 start_;
  double heading_;
  MotionSpec motion_;
};

}  // namespace m2ai::sim
