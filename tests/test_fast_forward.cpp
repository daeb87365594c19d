// Differential tests of BLE fast-forward: an idle connection keeps one heap
// entry per idle run and replays the skipped events on demand
// (ble/connection.hpp). Every run below is compared against the same run
// made event by event — a recorder collecting link-layer events keeps every
// connection event a real heap event — and the full summary plus counter map
// (per-node radio claims, energy charge, ...) must match exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ble/world.hpp"
#include "check/property.hpp"
#include "helpers/oracle.hpp"
#include "helpers/topo_gen.hpp"
#include "obs/recorder.hpp"
#include "sim/clock.hpp"
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

/// A collision-dense hub: node 1 shares `links` links with randomized
/// 65-85 ms intervals and coordinates the first `hub_coordinates` of them (it
/// is the subordinate of the others), so their idle trains collide on node 1
/// every few seconds. With `send_every`, one SDU goes down a link drawn from
/// a fixed stream at that period.
struct DenseHub {
  DenseHub(bool event_by_event, unsigned links, unsigned hub_coordinates, std::uint64_t seed,
           sim::Duration send_every = sim::Duration{})
      : sim{seed}, traffic{seed, 3} {
    world = std::make_unique<ble::BleWorld>(sim, phy::ChannelModel{0.05});
    if (event_by_event) {
      testhelpers::record_link_layer(recorder);
      world->set_recorder(&recorder);
    }
    sim::Rng draw{seed, 2};
    world->add_node(1, draw.uniform_real(-10.0, 10.0));
    for (NodeId leaf = 2; leaf <= links + 1; ++leaf) {
      world->add_node(leaf, draw.uniform_real(-10.0, 10.0));
    }
    for (NodeId leaf = 2; leaf <= links + 1; ++leaf) {
      ble::ConnParams p;
      p.interval = sim::Duration::ms(draw.uniform_int(65, 85));
      ble::Controller& hub = *world->find(1);
      ble::Controller& other = *world->find(leaf);
      const bool hub_coordinates_link = leaf - 2 < hub_coordinates;
      conns.push_back(&world->open_connection(
          hub_coordinates_link ? hub : other, hub_coordinates_link ? other : hub, p,
          sim::TimePoint::origin() +
              draw.uniform_duration(sim::Duration::ms(1), sim::Duration::ms(85))));
    }
    if (send_every > sim::Duration{}) {
      tick = [this, send_every] {
        const auto last = static_cast<std::int64_t>(conns.size()) - 1;
        ble::Connection* c = conns[static_cast<std::size_t>(traffic.uniform_int(0, last))];
        if (c->is_open()) c->coordinator().l2cap_send(*c, std::vector<std::uint8_t>(40, 7));
        sim.schedule_in(send_every, tick);
      };
      sim.schedule_in(send_every, tick);
    }
  }

  [[nodiscard]] ble::Connection& conn(ble::ConnId id) const { return *world->find_connection(id); }

  sim::Simulator sim;
  sim::Rng traffic;
  obs::Recorder recorder;
  std::unique_ptr<ble::BleWorld> world;
  std::vector<ble::Connection*> conns;
  std::function<void()> tick;
};

TEST(FastForwardCollisions, DenseHubMatchesEventByEvent) {
  // All collisions on the coordinator's side of the hub, all on the
  // subordinate's side, and a mix; idle, and with sparse traffic that
  // settles trains (and so undoes recorded collisions) at random instants.
  std::uint64_t resolved = 0;
  std::uint64_t three_party = 0;
  std::uint64_t invalidated = 0;
  for (const unsigned hub_coordinates : {8u, 0u, 4u}) {
    for (const sim::Duration send_every : {sim::Duration{}, sim::Duration::ms(700)}) {
      DenseHub fast{false, 8, hub_coordinates, 5 + hub_coordinates, send_every};
      DenseHub slow{true, 8, hub_coordinates, 5 + hub_coordinates, send_every};
      for (int s = 7; s <= 63; s += 7) {
        const sim::TimePoint t = sim::TimePoint::origin() + sim::Duration::sec(s);
        fast.sim.run_until(t);
        slow.sim.run_until(t);
        ASSERT_EQ(snapshot(*fast.world), snapshot(*slow.world))
            << "hub coordinates " << hub_coordinates << " links, at " << t.str();
      }
      const ble::IdleRunStats& runs = fast.world->idle_runs();
      EXPECT_GT(runs.resolved, 0u) << "hub coordinates " << hub_coordinates;
      EXPECT_EQ(fast.world->train_ties(), 0u);
      EXPECT_LT(2 * fast.sim.events_fired(), slow.sim.events_fired());
      resolved += runs.resolved;
      three_party += runs.three_party;
      invalidated += runs.ended_by(ble::RunEnd::kInvalidated);
    }
  }
  // Three-party overlaps fell back to a real event, and records were undone.
  EXPECT_GT(three_party, 0u);
  EXPECT_GT(invalidated, 0u);
  EXPECT_GT(resolved, 100u);
}

/// A denial recorded inside a train whose claim is still to come.
struct PendingDenial {
  ble::ConnId loser{0};
  ble::ConnId winner{0};
  bool widened{false};
  sim::TimePoint winner_anchor;
  sim::TimePoint winner_claim;  // the winner claims its window here,
  sim::TimePoint loser_claim;   // the loser its own here
  sim::TimePoint loser_anchor;
  sim::TimePoint seen;
};

/// Runs `hub` (fast) with a probe every millisecond until it sees a pending
/// denial for which `want` holds. The probe only reads, so a fresh world of
/// the same configuration reaches the same state at the same instant.
std::optional<PendingDenial> find_pending(DenseHub& hub,
                                          const std::function<bool(const PendingDenial&)>& want) {
  std::optional<PendingDenial> found;
  std::function<void()> probe = [&] {
    for (const ble::Connection* c : hub.conns) {
      if (found || !c->fast_forwarding()) continue;
      for (const ble::TrainDenial& d : c->train_denials()) {
        if (d.winner == nullptr || d.window == 0 || !d.winner->fast_forwarding()) continue;
        PendingDenial p;
        p.loser = c->id();
        p.winner = d.winner->id();
        p.widened = d.widened;
        p.winner_anchor = d.winner_anchor;
        p.winner_claim =
            d.winner_anchor - (d.winner->train_anchor(1) - d.winner->train_anchor(0));
        p.loser_claim = c->train_anchor(d.window - 1);
        p.loser_anchor = c->train_anchor(d.window);
        p.seen = hub.sim.now();
        if (p.loser_claim > p.seen && want(p)) {
          found = p;
          break;
        }
      }
    }
    if (!found) hub.sim.schedule_in(sim::Duration::ms(1), probe);
  };
  hub.sim.schedule_in(sim::Duration::ms(1), probe);
  hub.sim.run_until(sim::TimePoint::origin() + sim::Duration::sec(60));
  return found;
}

/// Runs the hub fast and event by event with `act` at `at` in both, and
/// compares them; `check` runs in the fast world right after `act`.
void expect_same_with(unsigned hub_coordinates, std::uint64_t seed, sim::TimePoint at,
                      const std::function<void(DenseHub&)>& act,
                      const std::function<void(DenseHub&)>& check) {
  DenseHub fast{false, 8, hub_coordinates, seed};
  DenseHub slow{true, 8, hub_coordinates, seed};
  fast.sim.schedule_at(at, [&] {
    act(fast);
    check(fast);
  });
  slow.sim.schedule_at(at, [&] { act(slow); });
  for (const sim::Duration after : {sim::Duration::sec(3), sim::Duration::sec(20)}) {
    fast.sim.run_until(at + after);
    slow.sim.run_until(at + after);
    ASSERT_EQ(snapshot(*fast.world), snapshot(*slow.world)) << "at " << (at + after).str();
  }
  EXPECT_EQ(fast.world->train_ties(), 0u);
}

/// True when `loser` still records a denial won by `p.winner`'s window.
bool still_recorded(DenseHub& hub, const PendingDenial& p) {
  const auto& denials = hub.conn(p.loser).train_denials();
  return std::any_of(denials.begin(), denials.end(), [&](const ble::TrainDenial& d) {
    return d.winner != nullptr && d.winner->id() == p.winner &&
           d.winner_anchor == p.winner_anchor;
  });
}

/// The other endpoint of a hub link.
ble::Controller& leaf_of(ble::Connection& c) {
  return c.coordinator().id() == 1 ? c.subordinate() : c.coordinator();
}

TEST(FastForwardCollisions, WinnerLeavingBetweenClaimsUndoesTheDenial) {
  // Settled by data, crashed (radio off) or closed after it claimed its
  // window but before the loser claims: the loser's claim runs for real —
  // granted event by event once a closed winner released its window.
  for (const bool widened : {false, true}) {
    const std::uint64_t seed = 21;
    DenseHub probe{false, 8, 4, seed};
    const auto p = find_pending(probe, [&](const PendingDenial& d) {
      return d.widened == widened && d.winner_claim > d.seen &&
             d.loser_claim - d.winner_claim > sim::Duration::us(200);
    });
    ASSERT_TRUE(p.has_value()) << "no pending denial, widened " << widened;
    const sim::TimePoint between = p->winner_claim + (p->loser_claim - p->winner_claim) / 2;
    const auto undone = [&](DenseHub& hub) {
      EXPECT_FALSE(still_recorded(hub, *p)) << "widened " << widened;
    };
    expect_same_with(4, seed, between, [&](DenseHub& hub) {
      ble::Connection& w = hub.conn(p->winner);
      w.coordinator().l2cap_send(w, std::vector<std::uint8_t>(40, 1));
    }, undone);
    expect_same_with(4, seed, between,
                     [&](DenseHub& hub) { leaf_of(hub.conn(p->winner)).set_radio_on(false); },
                     undone);
    expect_same_with(4, seed, between, [&](DenseHub& hub) { hub.conn(p->winner).close(); },
                     undone);
  }
}

TEST(FastForwardCollisions, LoserSettlingEarlyDropsTheDenial) {
  for (const bool widened : {false, true}) {
    const std::uint64_t seed = 23;
    DenseHub probe{false, 8, 4, seed};
    const auto p = find_pending(probe, [&](const PendingDenial& d) {
      return d.widened == widened && d.loser_claim - d.seen > sim::Duration::ms(2);
    });
    ASSERT_TRUE(p.has_value()) << "no pending denial, widened " << widened;
    expect_same_with(4, seed, p->seen + (p->loser_claim - p->seen) / 2,
                     [&](DenseHub& hub) {
                       ble::Connection& l = hub.conn(p->loser);
                       l.coordinator().l2cap_send(l, std::vector<std::uint8_t>(40, 2));
                     },
                     [&](DenseHub& hub) {
                       EXPECT_FALSE(hub.conn(p->loser).fast_forwarding());
                       EXPECT_FALSE(still_recorded(hub, *p));
                     });
  }
}

TEST(FastForwardCollisions, DeniedWindowHoldsNothing) {
  // Once the loser's claim is made (and denied), its window holds nothing on
  // the hub: a span inside it but clear of the winner's window is free there,
  // event by event and fast-forwarded alike.
  for (const bool widened : {false, true}) {
    const std::uint64_t seed = 29;
    DenseHub probe{false, 8, 4, seed};
    const auto p = find_pending(probe, [&](const PendingDenial& d) {
      const sim::Duration apart = d.loser_anchor - d.winner_anchor;
      return d.widened == widened && d.loser_claim - d.seen > sim::Duration::ms(1) &&
             (apart > sim::Duration::us(400) || apart < sim::Duration::us(-400));
    });
    ASSERT_TRUE(p.has_value()) << "no pending denial, widened " << widened;
    DenseHub fast{false, 8, 4, seed};
    DenseHub slow{true, 8, 4, seed};
    std::vector<bool> free_fast;
    std::vector<bool> free_slow;
    const auto sweep = [&](DenseHub& hub, std::vector<bool>& out) {
      ble::RadioScheduler& s = hub.world->find(1)->scheduler();
      for (int us = -600; us <= 1800; us += 50) {
        const sim::TimePoint t = p->loser_anchor + sim::Duration::us(us);
        out.push_back(s.is_free(t, t + sim::Duration::us(50), 999));
      }
    };
    const sim::TimePoint at = p->loser_claim + sim::Duration::us(1);
    fast.sim.schedule_at(at, [&] { sweep(fast, free_fast); });
    slow.sim.schedule_at(at, [&] { sweep(slow, free_slow); });
    fast.sim.run_until(at + sim::Duration::sec(3));
    slow.sim.run_until(at + sim::Duration::sec(3));
    EXPECT_EQ(free_fast, free_slow) << "widened " << widened;
    ASSERT_EQ(snapshot(*fast.world), snapshot(*slow.world));
    // Some span inside the loser's window was free.
    bool inside = false;
    for (std::size_t k = 0; k < free_slow.size(); ++k) {
      const int us = -600 + 50 * static_cast<int>(k);
      inside |= free_slow[k] && us >= 0 && us < 1200;
    }
    EXPECT_TRUE(inside) << "widened " << widened;
  }
}

/// Section 6.2: two same-interval connections on one node wrap into overlap
/// every ConnItvl / ClkDrift. Hub 1 runs on a perfect clock and coordinates
/// link A (to 2); node 3 coordinates link B to the hub with a clock
/// ClkDrift slow, so B's anchors close in on A's by ClkDrift seconds per
/// second. No packet is lost, so B's widening on the hub is exact and the
/// overlap begins when the drawn gap has closed: after gap / ClkDrift.
struct ShadingHub {
  ShadingHub(bool event_by_event, sim::Duration interval, double drift_ppm,
             sim::TimePoint a0, sim::TimePoint b0) {
    world = std::make_unique<ble::BleWorld>(sim, phy::ChannelModel{0.0});
    if (event_by_event) {
      recorder.collect(true);
      recorder.set_categories(sim::trace_cat_bit(sim::TraceCat::kLinkLayer));
      world->set_recorder(&recorder);
    }
    ble::Controller& hub = world->add_node(1, 0.0);
    ble::Controller& leaf = world->add_node(2, 0.0);
    ble::Controller& coord = world->add_node(3, -drift_ppm);
    ble::ConnParams p;
    p.interval = interval;
    a = &world->open_connection(hub, leaf, p, a0);
    b = &world->open_connection(coord, hub, p, b0);
  }
  sim::Simulator sim{1};
  obs::Recorder recorder;
  std::unique_ptr<ble::BleWorld> world;
  ble::Connection* a{nullptr};
  ble::Connection* b{nullptr};
};

TEST(ShadingProperty, FirstDenialAfterGapOverClockDrift) {
  check::PropertyConfig pc;
  pc.rounds = 8;
  std::uint64_t resolved = 0;
  const auto result = check::check_property(
      "sec62-first-denial",
      [&](check::Gen& g) {
        // The paper's range: 7.5 ms at 500 us/s (a wrap every 15 s) to 75 ms
        // at 5 us/s (every 4.17 h).
        const sim::Duration interval =
            sim::Duration::us(1250) * static_cast<std::int64_t>(g.u64(6, 60));
        const double drift_ppm = 5.0 * std::pow(100.0, g.real01());
        // ClkDrift as the nanosecond clock realizes it: B's interval is
        // rounded to whole nanoseconds, which moves a 5 us/s drift by ~1%.
        const sim::Duration b_interval = sim::SleepClock{-drift_ppm}.local_to_global(interval);
        const double clk_drift = (interval - b_interval).to_sec_f() / b_interval.to_sec_f();
        // B's window on the hub is widened by the drift over one interval;
        // the overlap begins when B's anchor is slot + widening after A's.
        const sim::Duration ww =
            b_interval.scaled(drift_ppm * 1e-6) + sim::Duration::us(50);
        const sim::Duration edge = sim::Duration::ms_f(1.25) + ww;
        const sim::Duration gap = (interval - edge * 2).scaled(0.05 + 0.9 * g.real01());
        const sim::TimePoint a0 = sim::TimePoint::origin() + sim::Duration::ms(1);
        const sim::TimePoint b0 = a0 + edge + gap;
        const sim::TimePoint predicted = b0 + sim::Duration::sec_f(gap.to_sec_f() / clk_drift);
        const sim::TimePoint horizon = predicted + interval * 2;

        ShadingHub slow{true, interval, drift_ppm, a0, b0};
        slow.sim.run_until(horizon);
        const auto& events = slow.recorder.collected();
        const auto first = std::find_if(events.begin(), events.end(), [](const obs::Event& e) {
          return e.type == obs::EventType::kConnEventMissed;
        });
        PROP_ASSERT(first != events.end(), "no denial by " + horizon.str());
        PROP_ASSERT(first->id == slow.b->id(), "the later claimer, B, loses");
        const sim::TimePoint t_first = first->at;
        const sim::Duration off = t_first - predicted;
        PROP_ASSERT(off <= interval && off >= sim::Duration{} - interval,
                    "first denial " + t_first.str() + " vs ConnItvl/ClkDrift " + predicted.str());

        // Fast-forwarded, the same first denied instant: no missed event
        // just before it, B's first one at it.
        ShadingHub fast{false, interval, drift_ppm, a0, b0};
        fast.sim.run_until(t_first - sim::Duration::ns(1));
        PROP_ASSERT(fast.world->link_stats(1, 2).events_missed == 0 &&
                        fast.world->link_stats(3, 1).events_missed == 0,
                    "fast-forward missed an event before " + t_first.str());
        fast.sim.run_until(t_first);
        PROP_ASSERT(fast.world->link_stats(3, 1).events_missed == 1,
                    "fast-forward did not miss B's event at " + t_first.str());
        // And the same run on through B's supervision loss.
        const sim::TimePoint end = horizon + sim::Duration::sec(4);
        fast.sim.run_until(end);
        slow.sim.run_until(end);
        PROP_ASSERT(snapshot(*fast.world) == snapshot(*slow.world), "diverged by " + end.str());
        PROP_ASSERT(fast.world->train_ties() == 0, "tie");
        resolved += fast.world->idle_runs().resolved;
      },
      pc);
  EXPECT_TRUE(result.ok) << result.report();
  EXPECT_GT(resolved, 0u);  // the shading collisions were decided inside trains
}

}  // namespace
}  // namespace mgap
