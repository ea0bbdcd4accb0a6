// Unit tests: random waypoint mobility model.
#include <gtest/gtest.h>

#include "mobility/waypoint.h"
#include "sim/rng.h"

namespace xfa {
namespace {

MobilityConfig small_field() {
  MobilityConfig config;
  config.field_width = 100;
  config.field_height = 100;
  config.max_speed = 10;
  config.pause_time = 1;
  return config;
}

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{3, 4}, b{1, 2};
  EXPECT_EQ((a + b), (Vec2{4, 6}));
  EXPECT_EQ((a - b), (Vec2{2, 2}));
  EXPECT_EQ((a * 2.0), (Vec2{6, 8}));
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(distance(a, b), std::hypot(2, 2));
}

TEST(RandomWaypoint, PositionsStayInField) {
  const MobilityConfig config = small_field();
  RandomWaypointMobility mobility(10, config, Rng(1));
  for (NodeId n = 0; n < 10; ++n) {
    for (double t = 0; t < 500; t += 3.7) {
      const Vec2 p = mobility.position(n, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, config.field_width);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, config.field_height);
    }
  }
}

TEST(RandomWaypoint, SpeedWithinBounds) {
  const MobilityConfig config = small_field();
  RandomWaypointMobility mobility(10, config, Rng(2));
  for (NodeId n = 0; n < 10; ++n) {
    for (double t = 0; t < 200; t += 1.1) {
      const double v = mobility.speed(n, t);
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, config.max_speed);
    }
  }
}

TEST(RandomWaypoint, InitiallyPausedAtStartPosition) {
  const MobilityConfig config = small_field();
  RandomWaypointMobility mobility(3, config, Rng(3));
  const Vec2 p0 = mobility.position(0, 0.0);
  const Vec2 p_half = mobility.position(0, config.pause_time * 0.5);
  EXPECT_EQ(p0, p_half);
  EXPECT_DOUBLE_EQ(mobility.speed(0, 0.0), 0.0);
}

TEST(RandomWaypoint, EventuallyMoves) {
  const MobilityConfig config = small_field();
  RandomWaypointMobility mobility(3, config, Rng(4));
  const Vec2 start = mobility.position(1, 0.0);
  const Vec2 later = mobility.position(1, 50.0);
  EXPECT_NE(start, later);
}

TEST(RandomWaypoint, MovementSpeedMatchesReportedSpeed) {
  const MobilityConfig config = small_field();
  RandomWaypointMobility mobility(1, config, Rng(5));
  // Find a moving moment, then check displacement over a small dt.
  double t = 0;
  while (mobility.speed(0, t) == 0 && t < 100) t += 0.5;
  ASSERT_LT(t, 100.0) << "node never moved";
  const double v = mobility.speed(0, t);
  const Vec2 a = mobility.position(0, t);
  const Vec2 b = mobility.position(0, t + 0.01);
  if (mobility.speed(0, t + 0.01) == v) {  // still in the same segment
    EXPECT_NEAR(distance(a, b) / 0.01, v, 1e-6);
  }
}

TEST(RandomWaypoint, DeterministicAcrossInstances) {
  const MobilityConfig config = small_field();
  RandomWaypointMobility a(5, config, Rng(77));
  RandomWaypointMobility b(5, config, Rng(77));
  for (NodeId n = 0; n < 5; ++n) {
    for (double t = 0; t < 100; t += 7.3) {
      const Vec2 fresh = a.position(n, t);
      EXPECT_EQ(fresh, b.position(n, t));
      // A same-instant repeat (the channel's sender-then-candidate pattern)
      // is served from the per-node cache and must not drift.
      EXPECT_EQ(a.position(n, t), fresh);
    }
  }
}

TEST(RandomWaypoint, QueryOrderAcrossNodesDoesNotMatter) {
  const MobilityConfig config = small_field();
  RandomWaypointMobility a(4, config, Rng(88));
  RandomWaypointMobility b(4, config, Rng(88));
  // Advance node 3 far into the future on `a` before touching node 0.
  (void)a.position(3, 400.0);
  const Vec2 pa = a.position(0, 123.0);
  const Vec2 pb = b.position(0, 123.0);
  EXPECT_EQ(pa, pb);
}

// Property sweep: field bounds hold for a range of configurations.
class WaypointParamTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(WaypointParamTest, BoundsAndSpeedInvariants) {
  const auto [field, speed, pause] = GetParam();
  MobilityConfig config;
  config.field_width = field;
  config.field_height = field * 0.5;
  config.max_speed = speed;
  config.pause_time = pause;
  RandomWaypointMobility mobility(6, config, Rng(99));
  for (NodeId n = 0; n < 6; ++n) {
    for (double t = 0; t < 300; t += 4.9) {
      const Vec2 p = mobility.position(n, t);
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, config.field_width);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, config.field_height);
      EXPECT_LE(mobility.speed(n, t), speed);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WaypointParamTest,
    ::testing::Combine(::testing::Values(200.0, 1000.0, 2000.0),
                       ::testing::Values(1.0, 20.0),
                       ::testing::Values(0.5, 10.0, 60.0)));

}  // namespace
}  // namespace xfa
