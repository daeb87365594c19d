// Differential tests of BLE fast-forward: an idle connection keeps one heap
// entry per idle run and replays the skipped events on demand
// (ble/connection.hpp). Every run below is compared against the same run
// made event by event — a recorder collecting link-layer events keeps every
// connection event a real heap event — and the full summary plus counter map
// (per-node radio claims, energy charge, ...) must match exactly.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ble/world.hpp"
#include "check/property.hpp"
#include "helpers/oracle.hpp"
#include "helpers/topo_gen.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"
#include "testbed/config_file.hpp"
#include "testbed/experiment.hpp"
#include "testbed/mobility.hpp"

namespace mgap {
namespace {

using testhelpers::RunMode;

void expect_same_as_event_by_event(const std::string& text) {
  const testbed::ExperimentConfig cfg = testbed::parse_experiment_config(text);
  const auto r =
      testhelpers::run_differential(cfg, RunMode::kAsConfigured, RunMode::kEventByEvent);
  EXPECT_TRUE(r.ok) << "config:\n" << text << "divergence:\n" << r.divergence;
}

const std::string kTree =
    "radio = ble\ntopology = tree15\nproducer_interval = 1s\nproducer_jitter = 500ms\n";

TEST(FastForward, PaperTreeFigures) {
  // Figure 7 (75 ms), the Figure 8 interval sweep's ends and its randomized
  // mitigation, and Figure 12's busier clocks with a long supervision timeout.
  expect_same_as_event_by_event(kTree + "duration = 5m\nconn_interval = 75ms\nseed = 1\n");
  expect_same_as_event_by_event(kTree + "duration = 2m\nconn_interval = 25ms\nseed = 2\n");
  expect_same_as_event_by_event(kTree + "duration = 2m\nconn_interval = 100ms\nseed = 3\n");
  expect_same_as_event_by_event(kTree +
                                "duration = 3m\nconn_interval = 65:85ms\nseed = 4\n");
  expect_same_as_event_by_event(kTree +
                                "duration = 5m\nconn_interval = 75ms\ndrift_ppm_range = 8\n"
                                "supervision_timeout = 16s\nseed = 4\n");
}

TEST(FastForward, OverloadPresets) {
  for (const char* preset : {"off", "link", "netif", "app", "all"}) {
    expect_same_as_event_by_event(
        "radio = ble\ntopology = tree15\nduration = 20s\nconfirmable_coap = true\n"
        "producer_interval = 20ms\nproducer_jitter = 5ms\nconn_interval = 75ms\n"
        "supervision_timeout = 2s\nseed = 2\nflow.preset = " +
        std::string{preset} + "\n");
  }
}

TEST(FastForward, RggKneeCell) {
  expect_same_as_event_by_event(
      "radio = ble\ntopo.generator = rgg\ntopo.nodes = 300\ntopo.density = 12\n"
      "topo.range = 10\nduration = 30s\nproducer_interval = 30s\nproducer_jitter = 10s\n"
      "conn_interval = 65:85ms\nsupervision_timeout = 2s\nseed = 1\n");
}

TEST(FastForward, FaultsAndChaos) {
  const std::string base = kTree + "duration = 2m\nconn_interval = 75ms\nseed = 5\n";
  for (const char* fault : {
           "crash node=3 at=20s reboot_after=10s",
           "blackout link=1-2 at=15s for=10s",
           "attenuate link=1-3 at=15s for=30s per=0.3",
           "interfere channels=0-36 at=10s for=20s per=0.2",
           "clock_drift node=2 at=10s ppm=60 for=40s",
           "clock_step node=1 at=25s step=3ms",
           "pressure node=2 at=10s for=20s bytes=4000",
       }) {
    expect_same_as_event_by_event(base + "fault.0 = " + fault + "\n");
  }
  // A regional interferer needs a geometric world.
  expect_same_as_event_by_event(
      "radio = ble\ntopo.generator = jitter_grid\ntopo.nodes = 25\nduration = 1m\n"
      "producer_interval = 2s\nproducer_jitter = 1s\nconn_interval = 65:85ms\nseed = 6\n"
      "fault.0 = interfere channels=0-36 at=10s for=20s per=0.5 node=7 radius=8\n");
  expect_same_as_event_by_event(
      kTree + "duration = 3m\nconn_interval = 75ms\nseed = 7\nchaos_rate = 2\n"
              "chaos_kinds = crash+blackout+attenuate+interfere+clock_drift+clock_step\n");
}

TEST(FastForward, AdaptiveChannelMap) {
  expect_same_as_event_by_event(
      "radio = ble\ntopology = tree15\nduration = 3m\nproducer_interval = 5s\n"
      "producer_jitter = 1s\nconn_interval = 75ms\nexclude_channel_22 = false\n"
      "adaptive_channel_map = true\nseed = 3\n");
}

TEST(FastForwardProperty, RandomTopoSpecs) {
  check::PropertyConfig pc;
  pc.rounds = 4;  // two full experiments per round
  const auto result = check::check_property(
      "fast-forward-random-topo",
      [](check::Gen& g) {
        testbed::ExperimentConfig cfg;
        cfg.topo = testhelpers::gen_spec(g);
        cfg.duration = sim::Duration::sec(20);
        cfg.producer_interval = sim::Duration::sec(2);
        cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65),
                                                      sim::Duration::ms(85));
        cfg.seed = g.u64(1, 1000);
        const auto r = testhelpers::run_differential(cfg, RunMode::kAsConfigured,
                                                     RunMode::kEventByEvent);
        PROP_ASSERT(r.ok, r.divergence);
      },
      pc);
  EXPECT_TRUE(result.ok) << result.report();
}

/// Every per-event counter of a BLE world, in one comparable text.
std::string snapshot(ble::BleWorld& world) {
  std::string out;
  char line[512];
  for (ble::Controller* ctrl : world.nodes()) {
    const ble::RadioActivity& a = ctrl->activity();
    std::snprintf(line, sizeof line,
                  "node %u: ce %" PRIu64 "/%" PRIu64 " pairs %" PRIu64 " bytes %" PRIu64
                  "/%" PRIu64 " data %" PRIu64 "/%" PRIu64 " adv %" PRIu64
                  " claims %" PRIu64 "/%" PRIu64 "\n",
                  ctrl->id(), a.conn_events_coord, a.conn_events_sub, a.packet_pairs,
                  a.bytes_tx, a.bytes_rx, a.data_bytes_tx, a.data_bytes_rx, a.adv_events,
                  ctrl->scheduler().granted(), ctrl->scheduler().denied());
    out += line;
  }
  for (ble::ConnId id = 1; id <= world.connections_created(); ++id) {
    ble::Connection* c = world.find_connection(id);
    std::snprintf(line, sizeof line, "conn %" PRIu64 ": open %d counter %u anchor %" PRId64 "\n",
                  id, c->is_open() ? 1 : 0, c->event_counter(),
                  c->next_anchor().since_origin().count_ns());
    out += line;
  }
  for (const ble::LinkStats* s : world.all_link_stats()) {
    std::snprintf(line, sizeof line,
                  "link %u-%u: ok %" PRIu64 " missed %" PRIu64 " aborted %" PRIu64
                  " tx %" PRIu64 " pdu_ok %" PRIu64 " retrans %" PRIu64 " losses %" PRIu64
                  " reconnects %" PRIu64 "\n",
                  s->coordinator, s->subordinate, s->events_ok, s->events_missed,
                  s->events_aborted, s->pdu_tx, s->pdu_ok, s->pdu_retrans, s->conn_losses,
                  s->reconnects);
    out += line;
  }
  return out;
}

TEST(FastForward, CutsAtRandomInstantsMatchEventByEvent) {
  // run_until returns with every connection settled, so cutting a run into
  // pieces at random instants checks settling at arbitrary points, and the
  // run goes on from the settled state.
  const testbed::ExperimentConfig cfg = testbed::parse_experiment_config(
      "radio = ble\ntopo.generator = rgg\ntopo.nodes = 60\ntopo.density = 10\n"
      "topo.range = 10\nduration = 40s\nproducer_interval = 10s\nproducer_jitter = 2s\n"
      "conn_interval = 65:85ms\nseed = 9\n");
  testbed::Experiment fast{cfg};
  testbed::Experiment slow{cfg};
  testhelpers::record_link_layer(slow.recorder());
  sim::Rng cuts{17, 0};
  sim::TimePoint t = sim::TimePoint::origin();
  const sim::TimePoint end = sim::TimePoint::origin() + cfg.duration;
  int pieces = 0;
  while (t < end) {
    t = sim::min(end, t + cuts.uniform_duration(sim::Duration::ms(1), sim::Duration::sec(3)));
    fast.run_until(t);
    slow.run_until(t);
    ++pieces;
    ASSERT_EQ(snapshot(*fast.ble_world()), snapshot(*slow.ble_world()))
        << "diverged at " << t.str();
  }
  EXPECT_GT(pieces, 20);
  EXPECT_EQ(fast.ble_world()->train_ties(), 0u);
  // Fast-forward did happen: far fewer heap events for the same run.
  EXPECT_LT(2 * fast.simulator().events_fired(), slow.simulator().events_fired());
}

/// A small hand-built world: a hub with four leaves, leaf 5 also
/// coordinating leaf 6, sending an SDU every `send_every` on each link so
/// idle runs start and stop.
struct HubWorld {
  explicit HubWorld(bool event_by_event, const ble::ConnParams& params,
                    sim::Duration send_every) {
    world = std::make_unique<ble::BleWorld>(sim, phy::ChannelModel{0.05});
    if (event_by_event) {
      testhelpers::record_link_layer(recorder);
      world->set_recorder(&recorder);
    }
    const double drift[] = {0.0, 3.0, -4.0, 7.5, -1.0, 2.0, -6.0};
    for (NodeId id = 1; id <= 6; ++id) world->add_node(id, drift[id]);
    sim::Rng phase{3, 1};
    const auto open = [&](NodeId c, NodeId s) {
      ble::Connection& conn = world->open_connection(
          *world->find(c), *world->find(s), params,
          sim::TimePoint::origin() + phase.uniform_duration(sim::Duration::ms(1),
                                                            sim::Duration::ms(90)));
      conns.push_back(&conn);
    };
    for (NodeId leaf = 2; leaf <= 5; ++leaf) open(1, leaf);
    open(5, 6);
    tick = [this, send_every] {
      for (ble::Connection* c : conns) {
        if (c->is_open()) c->coordinator().l2cap_send(*c, std::vector<std::uint8_t>(40, 7));
      }
      sim.schedule_in(send_every, tick);
    };
    sim.schedule_in(send_every, tick);
  }

  sim::Simulator sim{11};
  obs::Recorder recorder;
  std::unique_ptr<ble::BleWorld> world;
  std::vector<ble::Connection*> conns;
  std::function<void()> tick;
};

TEST(FastForward, SubordinateLatency) {
  ble::ConnParams p;
  p.interval = sim::Duration::ms(50);
  p.subordinate_latency = 3;
  p.supervision_timeout = sim::Duration::sec(4);
  HubWorld fast{false, p, sim::Duration::ms(1700)};
  HubWorld slow{true, p, sim::Duration::ms(1700)};
  for (int s = 1; s <= 30; ++s) {
    const sim::TimePoint t = sim::TimePoint::origin() + sim::Duration::sec(s);
    fast.sim.run_until(t);
    slow.sim.run_until(t);
    ASSERT_EQ(snapshot(*fast.world), snapshot(*slow.world)) << "at " << t.str();
  }
}

TEST(FastForward, HubWorldWithTrafficAndParamUpdates) {
  ble::ConnParams p;
  p.interval = sim::Duration::ms(30);
  HubWorld fast{false, p, sim::Duration::ms(900)};
  HubWorld slow{true, p, sim::Duration::ms(900)};
  for (int s = 1; s <= 40; ++s) {
    if (s == 10) {
      // A parameter update lands mid idle run in the fast world.
      for (HubWorld* w : {&fast, &slow}) {
        ble::ConnParams np = w->conns[1]->params();
        np.interval = sim::Duration::ms(45);
        w->sim.schedule_in(sim::Duration::ms(333),
                           [c = w->conns[1], np] { c->request_param_update(np); });
      }
    }
    const sim::TimePoint t = sim::TimePoint::origin() + sim::Duration::sec(s);
    fast.sim.run_until(t);
    slow.sim.run_until(t);
    ASSERT_EQ(snapshot(*fast.world), snapshot(*slow.world)) << "at " << t.str();
  }
  EXPECT_LT(2 * fast.sim.events_fired(), slow.sim.events_fired());
}

TEST(FastForward, Mobility) {
  struct Run {
    explicit Run(bool event_by_event) {
      testbed::MobilityConfig mc;
      mc.width = 25.0;
      mc.height = 25.0;
      mob = std::make_unique<testbed::RandomWaypointMobility>(sim, mc);
      if (event_by_event) {
        testhelpers::record_link_layer(recorder);
        world.set_recorder(&recorder);
      }
      for (NodeId id = 1; id <= 5; ++id) {
        world.add_node(id, static_cast<double>(id) - 3.0);
        if (id <= 2) {
          mob->place_static(id, testbed::Vec2{10.0 * id, 10.0});
        } else {
          mob->add_mobile(id, testbed::Vec2{5.0 * id, 12.0});
        }
      }
      testbed::attach_link_per(world, *mob, testbed::RangeModel{8.0, 15.0});
      ble::ConnParams p;
      p.interval = sim::Duration::ms(60);
      for (NodeId sub = 2; sub <= 5; ++sub) {
        world.open_connection(*world.find(1), *world.find(sub), p,
                              sim::TimePoint::origin() + sim::Duration::ms(7 * sub));
      }
      mob->start();
    }
    sim::Simulator sim{21};
    obs::Recorder recorder;
    ble::BleWorld world{sim, phy::ChannelModel{0.02}};
    std::unique_ptr<testbed::RandomWaypointMobility> mob;
  };
  Run fast{false};
  Run slow{true};
  for (int s = 1; s <= 60; ++s) {
    const sim::TimePoint t = sim::TimePoint::origin() + sim::Duration::sec(s);
    fast.sim.run_until(t);
    slow.sim.run_until(t);
    ASSERT_EQ(snapshot(fast.world), snapshot(slow.world)) << "at " << t.str();
  }
}

}  // namespace
}  // namespace mgap
