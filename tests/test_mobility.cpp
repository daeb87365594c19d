// Tests for the mobility extension (section 9 future work): waypoint motion,
// range-based link PER, out-of-range connection loss, and handover through a
// dynamic connection manager.

#include <gtest/gtest.h>

#include "core/dynconn.hpp"
#include "core/nimble_netif.hpp"
#include "sim/simulator.hpp"
#include "testbed/mobility.hpp"

namespace mgap::testbed {
namespace {

TEST(RangeModel, PiecewiseShape) {
  const RangeModel r{10.0, 20.0};
  EXPECT_DOUBLE_EQ(r.per(0.0), 0.0);
  EXPECT_DOUBLE_EQ(r.per(10.0), 0.0);
  EXPECT_DOUBLE_EQ(r.per(20.0), 1.0);
  EXPECT_DOUBLE_EQ(r.per(35.0), 1.0);
  EXPECT_NEAR(r.per(15.0), 0.25, 1e-12);
  // Monotone.
  for (double d = 0; d < 25.0; d += 0.5) EXPECT_LE(r.per(d), r.per(d + 0.5));
}

TEST(RandomWaypoint, StaticNodesDontMove) {
  sim::Simulator sim{1};
  RandomWaypointMobility mob{sim};
  mob.place_static(1, Vec2{3.0, 4.0});
  mob.start();
  sim.run_until(sim::TimePoint::origin() + sim::Duration::minutes(5));
  EXPECT_DOUBLE_EQ(mob.position(1).x, 3.0);
  EXPECT_DOUBLE_EQ(mob.position(1).y, 4.0);
}

TEST(RandomWaypoint, MobileStaysInAreaAndMoves) {
  sim::Simulator sim{2};
  MobilityConfig cfg;
  cfg.width = 20.0;
  cfg.height = 10.0;
  RandomWaypointMobility mob{sim, cfg};
  mob.add_mobile(1, Vec2{1.0, 1.0});
  mob.start();
  Vec2 prev = mob.position(1);
  double travelled = 0.0;
  for (int s = 1; s <= 300; ++s) {
    sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(s));
    const Vec2 p = mob.position(1);
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 20.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 10.0);
    travelled += distance(prev, p);
    prev = p;
  }
  EXPECT_GT(travelled, 50.0);  // it actually roams
}

TEST(RandomWaypoint, SpeedBounded) {
  sim::Simulator sim{3};
  MobilityConfig cfg;
  cfg.speed_min = 1.0;
  cfg.speed_max = 2.0;
  cfg.pause = sim::Duration{};
  RandomWaypointMobility mob{sim, cfg};
  mob.add_mobile(1, Vec2{15.0, 15.0});
  mob.start();
  Vec2 prev = mob.position(1);
  for (int s = 1; s <= 60; ++s) {
    sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(s));
    const Vec2 p = mob.position(1);
    EXPECT_LE(distance(prev, p), 2.1);  // <= max speed * 1 s (+ rounding)
    prev = p;
  }
}

TEST(Mobility, OutOfRangeBreaksConnection) {
  sim::Simulator sim{4};
  ble::BleWorld world{sim, phy::ChannelModel{0.0}};
  RandomWaypointMobility mob{sim};
  mob.place_static(1, Vec2{0.0, 0.0});
  mob.place_static(2, Vec2{5.0, 0.0});  // in range initially
  attach_link_per(world, mob, RangeModel{8.0, 15.0});

  ble::Controller& a = world.add_node(1, 1.0);
  ble::Controller& b = world.add_node(2, -1.0);
  ble::ConnParams p;
  p.supervision_timeout = sim::Duration::sec(2);
  ble::Connection& c = world.open_connection(a, b, p, sim::TimePoint::origin() +
                                                          sim::Duration::ms(10));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(10));
  ASSERT_TRUE(c.is_open());

  // Teleport node 2 out of range: every PDU now dies, supervision fires.
  mob.place_static(2, Vec2{50.0, 0.0});
  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(15));
  EXPECT_FALSE(c.is_open());
  EXPECT_EQ(c.link_stats().conn_losses, 1u);
}

TEST(Mobility, GapRespectsRange) {
  sim::Simulator sim{5};
  ble::BleWorld world{sim, phy::ChannelModel{0.0}};
  RandomWaypointMobility mob{sim};
  mob.place_static(1, Vec2{0.0, 0.0});
  mob.place_static(2, Vec2{100.0, 0.0});  // far out of range
  attach_link_per(world, mob, RangeModel{8.0, 15.0});

  ble::Controller& adv = world.add_node(1, 0.0);
  ble::Controller& ini = world.add_node(2, 0.0);
  adv.start_advertising();
  ble::ConnParams p;
  ini.start_initiating(1, p);
  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(5));
  EXPECT_EQ(ini.connection_to(1), nullptr);  // never heard the advertiser

  mob.place_static(2, Vec2{5.0, 0.0});  // walk into range
  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(6));
  EXPECT_NE(ini.connection_to(1), nullptr);
}

TEST(Mobility, HandoverBetweenAccessNodes) {
  // Two joined "access" nodes 30 m apart; a mobile node is near A, then
  // teleports near B: dynconn must lose the uplink to A and rejoin via B.
  sim::Simulator sim{6};
  ble::BleWorld world{sim, phy::ChannelModel{0.0}};
  RandomWaypointMobility mob{sim};
  mob.place_static(1, Vec2{0.0, 0.0});
  mob.place_static(2, Vec2{30.0, 0.0});
  mob.place_static(3, Vec2{2.0, 0.0});
  attach_link_per(world, mob, RangeModel{8.0, 15.0});

  ble::Controller& a = world.add_node(1, 1.0);
  ble::Controller& b = world.add_node(2, -1.0);
  ble::Controller& m = world.add_node(3, 0.5);
  core::NimbleNetif na{a};
  core::NimbleNetif nb{b};
  core::NimbleNetif nm{m};
  core::DynconnConfig cfg;
  core::Dynconn da{na, cfg, /*root=*/true};
  core::Dynconn db{nb, cfg, /*root=*/true};  // second anchor, also "joined"
  core::Dynconn dm{nm, cfg, /*root=*/false};
  da.set_advertised_metric(256);
  db.set_advertised_metric(256);
  da.start();
  db.start();
  dm.start();

  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(5));
  ASSERT_TRUE(dm.has_uplink());
  EXPECT_EQ(*dm.uplink_peer(), 1u);  // nearest anchor

  mob.place_static(3, Vec2{28.0, 0.0});  // jump next to B
  sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(30));
  ASSERT_TRUE(dm.has_uplink());
  EXPECT_EQ(*dm.uplink_peer(), 2u);  // handover happened
  EXPECT_GE(dm.uplink_losses() + dm.join_attempts(), 2u);
}

}  // namespace
}  // namespace mgap::testbed
