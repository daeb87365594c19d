#pragma once
// BleWorld: the radio environment tying controllers together. Owns all
// controllers and connections (closed connections are kept as inert records
// so late-delivered events and statistics stay valid), routes advertising
// events to interested initiators, and hands out per-link statistics.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "ble/controller.hpp"
#include "ble/connection.hpp"
#include "ble/ll_types.hpp"
#include "phy/channel_model.hpp"
#include "sim/arena.hpp"
#include "sim/ids.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mgap::sim {
class Simulator;
}

namespace mgap::obs {
class Recorder;
}

namespace mgap::ble {

class BleWorld {
 public:
  /// `arena_mode` selects how per-node state (controllers, connections, link
  /// stats) is allocated: bump-arena (default) or plain heap. Simulation
  /// results are bit-identical under either mode (pinned by test_arena).
  BleWorld(sim::Simulator& sim, phy::ChannelModel channel_model,
           sim::Arena::Mode arena_mode = sim::Arena::Mode::kBump);

  ~BleWorld();
  BleWorld(const BleWorld&) = delete;
  BleWorld& operator=(const BleWorld&) = delete;

  /// Throws std::invalid_argument on a duplicate node id — a config error
  /// that must surface in release builds too, not just under assert.
  Controller& add_node(NodeId id, double drift_ppm, ControllerConfig config = {});
  [[nodiscard]] Controller* find(NodeId id) const;
  /// Creation order; pointers stay valid for the world's lifetime (the
  /// backing arena frees them only at teardown).
  [[nodiscard]] const std::vector<Controller*>& nodes() const { return nodes_; }

  /// Mutable access settles every fast-forwarded connection first: what
  /// their skipped events drew against must not change under them.
  [[nodiscard]] phy::ChannelModel& channel_model() {
    settle_all();
    return channel_model_;
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Regional channel models: a per-receiver override of the global model,
  /// created on first access as a copy of it. Localized interference (a
  /// radius-scoped `fault.interfere`) perturbs only the models of nodes
  /// inside the ball instead of the whole world's. Delivery uses the
  /// *receiver's* model — interference is a property of where the listener
  /// sits. With no overrides installed (the legacy configuration) every
  /// lookup returns the global model and behavior is byte-identical.
  [[nodiscard]] phy::ChannelModel& region_channel_model(NodeId node) {
    settle_all();
    const auto it = region_models_.find(node);
    if (it != region_models_.end()) return it->second;
    return region_models_.emplace(node, channel_model_).first->second;
  }
  [[nodiscard]] const phy::ChannelModel& channel_model_for(NodeId receiver) const {
    if (!region_models_.empty()) {
      const auto it = region_models_.find(receiver);
      if (it != region_models_.end()) return it->second;
    }
    return channel_model_;
  }
  [[nodiscard]] bool has_region_models() const { return !region_models_.empty(); }

  /// Allocation telemetry for the scale benches.
  [[nodiscard]] const sim::Arena& arena() const { return arena_; }

  /// Optional pairwise link-quality model (mobility extension): returns an
  /// additional PER in [0,1] for the pair — 0 keeps the testbed's
  /// "all nodes in range" default, 1 means out of range. Combined
  /// multiplicatively with the per-channel model.
  using LinkPerFn = std::function<double(NodeId, NodeId)>;
  /// The hook's answer may change only after settle_all(): an idle run
  /// samples it once for all the events it skips. A static geometry never
  /// changes; a moving one settles before each move (testbed::attach_link_per).
  void set_link_per(LinkPerFn fn) {
    settle_all();
    link_per_ = std::move(fn);
  }
  /// The raw installed hook (null when unset); lets a fault injector compose
  /// its own windows over a pre-existing model instead of replacing it.
  [[nodiscard]] const LinkPerFn& link_per_fn() const { return link_per_; }
  [[nodiscard]] double link_per(NodeId a, NodeId b) const {
    return link_per_ ? link_per_(a, b) : 0.0;
  }

  /// Optional per-node advertising candidate tables (the topo subsystem's
  /// spatial index). When installed, route_adv_event iterates only the
  /// advertiser's in-range candidates instead of all nodes — the structure
  /// that takes a 1000-node sim off the O(N)-per-advertisement scan. Lists
  /// must be ascending by id (the order the full scan visits) and must cover
  /// every pair with link PER < 1; nodes absent from a list never hear that
  /// advertiser.
  void set_neighbor_table(std::map<NodeId, std::vector<NodeId>> table) {
    neighbors_ = std::move(table);
  }
  [[nodiscard]] bool has_neighbor_table() const { return !neighbors_.empty(); }

  /// Advertising-path instrumentation: how many adv events were routed, how
  /// many candidate controllers those routes visited, and how many fell back
  /// to the full-`nodes_` scan (0 whenever a neighbor table is installed —
  /// the scale benches assert exactly that).
  [[nodiscard]] std::uint64_t adv_events_routed() const { return adv_events_routed_; }
  [[nodiscard]] std::uint64_t adv_candidates_scanned() const {
    return adv_candidates_scanned_;
  }
  [[nodiscard]] std::uint64_t adv_full_scans() const { return adv_full_scans_; }

  /// Channel map applied to newly created connections (the experiments
  /// exclude jammed channel 22 on all nodes, section 4.2).
  void set_default_channel_map(ChannelMap map) { default_chmap_ = map; }
  [[nodiscard]] const ChannelMap& default_channel_map() const { return default_chmap_; }

  /// Creates and starts a connection; used by the GAP connect path and
  /// directly by tests.
  Connection& open_connection(Controller& coord, Controller& sub, const ConnParams& params,
                              sim::TimePoint first_anchor);

  /// Called by an advertising controller for each transmitted adv event;
  /// routes it to at most one listening initiator.
  void route_adv_event(Controller& advertiser, sim::TimePoint t, sim::Duration duration);

  /// Per-link statistics, settled (see settle_all).
  [[nodiscard]] LinkStats& link_stats(NodeId coordinator, NodeId subordinate);
  [[nodiscard]] std::vector<const LinkStats*> all_link_stats();
  [[nodiscard]] std::uint64_t total_conn_losses() const;

  [[nodiscard]] std::vector<Connection*> open_connections() const;
  [[nodiscard]] Connection* find_connection(ConnId id) const;
  [[nodiscard]] std::uint64_t connections_created() const { return next_conn_id_ - 1; }

  [[nodiscard]] sim::Rng& rng() { return rng_; }

  /// Optional typed binary event recorder (obs subsystem); null disables.
  /// Propagates to every controller's radio scheduler, present and future.
  void set_recorder(obs::Recorder* recorder);
  [[nodiscard]] obs::Recorder* recorder() const { return recorder_; }

  // --- fast-forward (ble/connection.hpp, DESIGN.md) --------------------------
  /// Brings every fast-forwarded connection up to now and back to event by
  /// event. Runs whenever Simulator::run_until returns; call it before any
  /// change, made inside an event, to what idle connection events read.
  void settle_all();
  /// False while the recorder wants link-layer events or the link-PER hook
  /// may change at any time: connections then run event by event.
  [[nodiscard]] bool fast_forward_allowed() const;
  /// A skipped anchor equal to now, asked about by an event scheduled at the
  /// same instant as the skipped event would have been: the one order the
  /// heap's FIFO rule leaves undecided. Throws under MGAP_PARANOID.
  [[nodiscard]] std::uint64_t train_ties() const { return train_ties_; }
  void note_train_tie();
  void train_started(Connection& conn);
  void train_ended(Connection& conn);
  /// Why idle runs ended, and how train-vs-train collisions were decided.
  [[nodiscard]] const IdleRunStats& idle_runs() const { return idle_runs_; }
  void note_run_end(RunEnd why) { ++idle_runs_.ended[static_cast<std::size_t>(why)]; }
  void note_collision(Contest verdict);

 private:
  [[nodiscard]] LinkStats& stats_for(NodeId coordinator, NodeId subordinate);

  obs::Recorder* recorder_{nullptr};
  LinkPerFn link_per_;
  std::vector<Connection*> trains_;  // fast-forwarded connections
  std::uint64_t train_ties_{0};
  IdleRunStats idle_runs_;
  sim::Simulator& sim_;
  phy::ChannelModel channel_model_;
  std::map<NodeId, phy::ChannelModel> region_models_;
  ChannelMap default_chmap_{ChannelMap::all()};
  std::vector<Controller*> nodes_;
  std::map<NodeId, Controller*> by_id_;
  std::map<NodeId, std::vector<NodeId>> neighbors_;
  std::uint64_t adv_events_routed_{0};
  std::uint64_t adv_candidates_scanned_{0};
  std::uint64_t adv_full_scans_{0};
  std::vector<Connection*> connections_;
  std::map<std::pair<NodeId, NodeId>, LinkStats*> link_stats_;
  /// Hot per-event state, one entry per connection ever created, pooled in
  /// creation order (deque chunks are contiguous and addresses are stable).
  std::deque<ConnHot> conn_hot_;
  ConnId next_conn_id_{1};
  sim::Rng rng_;
  /// Owns every controller, connection and link-stats record. Declared last:
  /// destroyed first, in reverse allocation order (connections before the
  /// controllers they reference), while the raw-pointer containers above are
  /// still intact.
  sim::Arena arena_;
};

}  // namespace mgap::ble
