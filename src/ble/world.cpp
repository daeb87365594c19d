#include "ble/world.hpp"

#include <stdexcept>

#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace mgap::ble {

BleWorld::BleWorld(sim::Simulator& sim, phy::ChannelModel channel_model,
                   sim::Arena::Mode arena_mode)
    : sim_{sim}, channel_model_{channel_model}, rng_{sim.make_rng()},
      arena_{arena_mode} {
  sim_.add_pause_hook(this, [this] { settle_all(); });
}

BleWorld::~BleWorld() { sim_.remove_pause_hook(this); }

void BleWorld::settle_all() {
  while (!trains_.empty()) trains_.back()->settle();
}

bool BleWorld::fast_forward_allowed() const {
  if (recorder_ == nullptr) return true;
  return !(recorder_->wants(obs::EventType::kConnEvent) ||
           recorder_->wants(obs::EventType::kConnEventMissed) ||
           recorder_->wants(obs::EventType::kPduTx) ||
           recorder_->wants(obs::EventType::kRadioClaim));
}

void BleWorld::note_train_tie() {
  ++train_ties_;
#ifdef MGAP_PARANOID
  throw std::logic_error{"BleWorld: fast-forward anchor tie at " + sim_.now().str()};
#endif
}

void BleWorld::note_collision(Contest verdict) {
  switch (verdict) {
    case Contest::kAWins:
    case Contest::kBWins: ++idle_runs_.resolved; break;
    case Contest::kThreeParty: ++idle_runs_.three_party; break;
    case Contest::kWidening: ++idle_runs_.widening; break;
    case Contest::kOrder: ++idle_runs_.order; break;
  }
}

void BleWorld::train_started(Connection& conn) {
  conn.train_slot_ = static_cast<std::uint32_t>(trains_.size());
  trains_.push_back(&conn);
}

void BleWorld::train_ended(Connection& conn) {
  Connection* last = trains_.back();
  trains_[conn.train_slot_] = last;
  last->train_slot_ = conn.train_slot_;
  trains_.pop_back();
}

Controller& BleWorld::add_node(NodeId id, double drift_ppm, ControllerConfig config) {
  // A real error, not an assert: a duplicate id is a configuration mistake
  // and must surface in release builds through config validation.
  if (by_id_.find(id) != by_id_.end()) {
    throw std::invalid_argument{"BleWorld: duplicate node id " + std::to_string(id)};
  }
  Controller& ref = *arena_.make<Controller>(sim_, *this, id,
                                             sim::SleepClock{drift_ppm},
                                             std::move(config));
  nodes_.push_back(&ref);
  by_id_[id] = &ref;
  ref.scheduler().set_recorder(recorder_, id);
  return ref;
}

void BleWorld::set_recorder(obs::Recorder* recorder) {
  recorder_ = recorder;
  for (Controller* node : nodes_) {
    node->scheduler().set_recorder(recorder, node->id());
  }
}

Controller* BleWorld::find(NodeId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

Connection& BleWorld::open_connection(Controller& coord, Controller& sub,
                                      const ConnParams& params,
                                      sim::TimePoint first_anchor) {
  const ConnId id = next_conn_id_++;
  const auto access_address = static_cast<std::uint32_t>(rng_.next_u64());
  LinkStats& stats = stats_for(coord.id(), sub.id());
  if (stats.events_ok + stats.events_missed > 0 || stats.conn_losses > 0) {
    ++stats.reconnects;
  }
  ConnHot& hot = conn_hot_.emplace_back();
  connections_.push_back(arena_.make<Connection>(
      sim_, *this, id, coord, sub, params, first_anchor, access_address, default_chmap_,
      stats, hot, coord.config().conn, sim_.make_rng()));
  Connection& conn = *connections_.back();
  if (recorder_ != nullptr && recorder_->wants(obs::EventType::kConnOpen)) {
    obs::Event e;
    e.at = sim_.now();
    e.type = obs::EventType::kConnOpen;
    e.node = coord.id();
    e.id = id;
    e.a = sub.id();
    e.b = static_cast<std::uint32_t>(params.interval.count_us());
    recorder_->record(e);
  }
  conn.start();
  coord.notify_open(conn);
  sub.notify_open(conn);
  return conn;
}

void BleWorld::route_adv_event(Controller& advertiser, sim::TimePoint t,
                               sim::Duration duration) {
  ++adv_events_routed_;
  const std::vector<NodeId>* candidates = nullptr;
  if (has_neighbor_table()) {
    const auto it = neighbors_.find(advertiser.id());
    if (it == neighbors_.end()) return;  // geometrically isolated: nobody in range
    candidates = &it->second;
  } else {
    ++adv_full_scans_;
  }

  // Visits potential receivers in ascending-id order (candidate lists mirror
  // the full scan's order); stops early when `fn` returns true.
  const auto for_each_receiver = [&](auto&& fn) {
    if (candidates != nullptr) {
      for (const NodeId nid : *candidates) {
        const auto hit = by_id_.find(nid);
        if (hit == by_id_.end()) continue;
        ++adv_candidates_scanned_;
        if (fn(*hit->second)) return;
      }
    } else {
      for (Controller* node : nodes_) {
        if (node == &advertiser) continue;
        ++adv_candidates_scanned_;
        if (fn(*node)) return;
      }
    }
  };

  // Passive observers first (they never consume the event).
  for_each_receiver([&](Controller& c) {
    if (!c.is_observing()) return false;
    if (!c.scanner_hears(t, duration)) return false;
    if (rng_.chance(link_per(advertiser.id(), c.id()))) return false;  // out of range
    c.notify_observed(advertiser.id(), advertiser.adv_data());
    return false;
  });
  for_each_receiver([&](Controller& c) {
    const ConnParams* params = c.initiating_params(advertiser.id());
    if (params == nullptr) return false;
    if (!c.scanner_hears(t, duration)) return false;
    if (rng_.chance(link_per(advertiser.id(), c.id()))) return false;  // out of range

    // CONNECT_IND: the initiator becomes coordinator and dictates the anchor
    // inside the transmit window — the random phase that redistributes link
    // capacity after every reconnect (section 5.2's "beneficial reconnects").
    const ConnParams chosen = *params;
    c.stop_initiating(advertiser.id());
    const sim::TimePoint anchor = t + duration + sim::Duration::ms_f(1.25) +
                                  c.rng().uniform_duration(sim::Duration{}, chosen.interval);
    open_connection(c, advertiser, chosen, anchor);
    return true;  // one CONNECT_IND per advertising event
  });
}

LinkStats& BleWorld::link_stats(NodeId coordinator, NodeId subordinate) {
  settle_all();
  return stats_for(coordinator, subordinate);
}

LinkStats& BleWorld::stats_for(NodeId coordinator, NodeId subordinate) {
  const auto key = std::make_pair(coordinator, subordinate);
  auto it = link_stats_.find(key);
  if (it == link_stats_.end()) {
    LinkStats* stats = arena_.make<LinkStats>();
    stats->coordinator = coordinator;
    stats->subordinate = subordinate;
    it = link_stats_.emplace(key, stats).first;
  }
  return *it->second;
}

std::vector<const LinkStats*> BleWorld::all_link_stats() {
  settle_all();
  std::vector<const LinkStats*> out;
  out.reserve(link_stats_.size());
  for (const auto& [key, stats] : link_stats_) out.push_back(stats);
  return out;
}

std::uint64_t BleWorld::total_conn_losses() const {
  std::uint64_t total = 0;
  for (const auto& [key, stats] : link_stats_) total += stats->conn_losses;
  return total;
}

std::vector<Connection*> BleWorld::open_connections() const {
  std::vector<Connection*> out;
  for (Connection* c : connections_) {
    if (c->is_open()) out.push_back(c);
  }
  return out;
}

Connection* BleWorld::find_connection(ConnId id) const {
  for (Connection* c : connections_) {
    if (c->id() == id) return c;
  }
  return nullptr;
}

}  // namespace mgap::ble
