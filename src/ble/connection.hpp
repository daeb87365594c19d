#pragma once
// A BLE connection: the time-sliced, channel-hopping, acknowledged link
// described in section 2.2 of the paper.
//
// Model summary (one compound DES event per connection event):
//  * The coordinator's drifting sleep clock advances the anchor point.
//  * Both endpoints must hold a granted radio claim for the anchor slot,
//    otherwise the event is skipped (this is where shading bites).
//  * Within an event, TX/RX packet pairs are exchanged until (a) both LL
//    queues drain, (b) the window up to the next radio claim of either node
//    (Figure 4) or the own next anchor is exhausted, (c) the per-event pair
//    budget is reached, or (d) a CRC error aborts the event (section 5.2).
//  * A lost data PDU stays at the head of its queue and is retransmitted one
//    connection interval later (section 5.1).
//  * When the time since the last valid packet exceeds the supervision
//    timeout, the connection terminates on both ends.
//
// Fast-forward: while a connection is idle (empty LL queues, both next claims
// granted) its events differ only in draws from its own RNG stream, so it
// keeps one heap entry at the end of the idle run (the horizon) instead of
// one per event, and its claims form a ClaimTrain in both radio schedulers.
// settle() runs the skipped events through the same per-event step
// (run_event) in a tight loop, with the same draws in the same order. A
// collision with another train's window that the arithmetic can decide
// stays inside the run: the loser's window is recorded as denied
// (TrainDenial) and replayed as a missed event. DESIGN.md ("Fast-forward of
// idle BLE connections") has the horizon rules, the collision rule and the
// settle points.

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "ble/channel_selection.hpp"
#include "ble/l2cap.hpp"
#include "ble/ll_types.hpp"
#include "ble/radio_scheduler.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mgap::sim {
class Simulator;
}

namespace mgap::ble {

class Controller;
class BleWorld;

/// Per-connection state touched on *every* connection event — the hot subset
/// of Connection. BleWorld pools these contiguously in creation order (one
/// chunked deque for the whole world), so the per-event path reads dense
/// cache lines instead of chasing each cold Connection object: queues, AFH
/// tables, L2CAP channel state and the rest of Connection stay out of the
/// way until an exchange actually moves data. The layout groups the four
/// timestamps, the armed event and counters first (read on every event) and
/// packs the six grant/retry flags into one trailing line.
struct ConnHot {
  sim::TimePoint anchor;
  sim::TimePoint last_valid_rx_coord;
  sim::TimePoint last_valid_rx_sub;
  sim::TimePoint last_sub_sync;
  sim::EventId next_event{};
  std::uint16_t event_counter{0};
  std::uint8_t quiet_events{0};  // real events in a row that began with empty queues
  unsigned latency_skips{0};
  bool open{false};
  bool coord_granted{false};
  bool sub_granted{false};
  bool sub_intentional_skip{false};
  // Head-of-queue PDU already failed at least once (kPduRetrans flagging).
  bool coord_retry{false};
  bool sub_retry{false};
};

/// A train window whose claim on one node is decided to lose to another
/// train's window (RadioScheduler::contest): the event that claims it is
/// replayed as denied on that node.
struct TrainDenial {
  std::uint32_t window;
  bool widened;  // on the subordinate's node, else the coordinator's
  /// The train that wins, while the denial can still be undone: if it leaves
  /// its window before this claim is made, the claim runs for real. Null
  /// (or left stale) once the claim is made.
  Connection* winner;
  sim::TimePoint winner_anchor;  // anchor of the winning window
};

/// Why an idle run ended. Diagnostics only: results never depend on it.
enum class RunEnd : std::uint8_t {
  kBudget,       // horizon at the supervision budget
  kCap,          // horizon at the window cap
  kPending,      // horizon at a parameter or channel-map instant, or an AFH evaluation
  kClaim,        // horizon at a claim already in a table
  kCollision,    // horizon at another train's window, left to a real event
  kCut,          // cut short by a granted claim
  kInvalidated,  // cut because the train that won a recorded collision left it
  kSettled,      // settled before its horizon
};
inline constexpr std::size_t kRunEndKinds = 8;
[[nodiscard]] const char* to_string(RunEnd why);

/// Fast-forward counters of one BleWorld.
struct IdleRunStats {
  std::array<std::uint64_t, kRunEndKinds> ended{};  // indexed by RunEnd
  std::uint64_t resolved{0};  // train-vs-train collisions recorded inside a train
  // Train-vs-train collisions that set a run's horizon, by why.
  std::uint64_t three_party{0};
  std::uint64_t widening{0};
  std::uint64_t order{0};
  [[nodiscard]] std::uint64_t ended_by(RunEnd why) const {
    return ended[static_cast<std::size_t>(why)];
  }
};

/// Tunables of the connection-event engine (NimBLE-flavoured defaults).
struct ConnectionConfig {
  /// Radio time reserved per connection event. NimBLE schedules connections
  /// in 1.25 ms slots; data may extend beyond the reservation until the next
  /// claim of either node.
  sim::Duration reserve_slot{sim::Duration::ms_f(1.25)};
  /// Host/controller processing bound on packet pairs per event; calibrated
  /// so a saturated single link reaches the ~500 kbps the paper measured.
  unsigned max_pairs_per_event{30};
  /// Instantaneous sleep-clock jitter added to window widening.
  sim::Duration ww_margin{sim::Duration::us(50)};

  // Adaptive channel hopping (the ADH the Bluetooth standard leaves to
  // controller implementers, section 2.2; evaluated by Spoerk et al. in the
  // paper's related work). When enabled, the coordinator estimates per-
  // channel PER over a sliding window and removes consistently bad channels
  // through the channel-map update procedure.
  bool adaptive_channel_map{false};
  unsigned afh_eval_events{128};      // evaluation window (connection events)
  unsigned afh_min_samples{8};        // PDU draws needed to judge a channel
  double afh_per_threshold{0.4};      // exclusion threshold
  unsigned afh_min_channels{8};       // never hop on fewer channels
};

class Connection {
 public:
  /// `hot` is this connection's slot in the world's ConnHot pool; it must
  /// outlive the connection (BleWorld guarantees both).
  Connection(sim::Simulator& sim, BleWorld& world, ConnId id, Controller& coord,
             Controller& sub, const ConnParams& params, sim::TimePoint first_anchor,
             std::uint32_t access_address, const ChannelMap& chmap, LinkStats& stats,
             ConnHot& hot, const ConnectionConfig& config, sim::Rng rng);

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Arms the first connection event. Called once by BleWorld.
  void start();

  /// Host-initiated disconnect (either side).
  void close(DisconnectReason reason = DisconnectReason::kLocalClose);

  [[nodiscard]] bool is_open() const { return hot_.open; }
  [[nodiscard]] ConnId id() const { return id_; }
  [[nodiscard]] BleWorld& world() const { return world_; }
  [[nodiscard]] Controller& node(Role r) const;
  [[nodiscard]] Controller& coordinator() const { return node(Role::kCoordinator); }
  [[nodiscard]] Controller& subordinate() const { return node(Role::kSubordinate); }
  [[nodiscard]] Role role_of(const Controller& c) const;
  [[nodiscard]] Controller& peer_of(const Controller& c) const;
  [[nodiscard]] const ConnParams& params() const { return params_; }
  [[nodiscard]] std::uint32_t access_address() const { return access_address_; }
  [[nodiscard]] const ChannelMap& channel_map() const { return chmap_; }
  [[nodiscard]] L2capCoc& coc() { return coc_; }
  [[nodiscard]] LinkStats& link_stats() {
    settle();
    return stats_;
  }
  [[nodiscard]] std::uint16_t event_counter() {
    settle();
    return hot_.event_counter;
  }
  [[nodiscard]] sim::TimePoint next_anchor() {
    settle();
    return hot_.anchor;
  }

  /// Queues an LL data PDU for transfer from side `from`. Charges the sending
  /// node's BLE buffer pool; false when the pool is exhausted.
  bool enqueue(Role from, LlPdu pdu);
  [[nodiscard]] std::size_t queue_len(Role from) const { return queue_of(from).size(); }
  [[nodiscard]] std::size_t queued_bytes(Role from) const;

  /// LL connection-parameter update procedure: the new parameters take effect
  /// six events after the request (models the spec's instant offset).
  void request_param_update(const ConnParams& params);

  /// LL channel-map update procedure (same six-event apply delay).
  void request_channel_map_update(const ChannelMap& map);

  /// Displaces the next anchor by `delta` (clock-step fault): the pending
  /// event is re-armed at the shifted time while the supervision baselines
  /// stay put, so a large step can legitimately trip the timeout.
  void shift_anchor(sim::Duration delta);

  // --- fast-forward ----------------------------------------------------------
  [[nodiscard]] bool fast_forwarding() const { return train_.windows > 0; }
  /// Runs the skipped events whose anchors have passed and returns to
  /// event-by-event mode: the held window becomes an ordinary claim and the
  /// next event a real heap entry. No-op when not fast-forwarding.
  void settle();
  /// Index of the train window held now: the first whose anchor has not
  /// passed. Between run_until calls an anchor at now has passed; inside an
  /// event it has when its event would have been scheduled before the
  /// running one (the heap's order for same-instant events).
  [[nodiscard]] std::uint32_t train_held() const;
  /// Runs the skipped events whose anchors have passed and restarts the
  /// train at the held window, whose widening is then exact. Stays
  /// fast-forwarding; the horizon does not move.
  void catch_up();
  /// Shortens the train to `windows` windows, so the event that would claim
  /// window `windows` runs for real (it must be after the held window).
  void cut_train(std::uint32_t windows, RunEnd why = RunEnd::kCut);
  /// True when the claim of train window `window` on the subordinate's
  /// (`widened`) or the coordinator's node is recorded as denied.
  [[nodiscard]] bool train_denied(std::uint32_t window, bool widened) const {
    return !denials_.empty() && find_denial(window, widened);
  }
  /// The recorded denials, by window.
  [[nodiscard]] const std::vector<TrainDenial>& train_denials() const { return denials_; }
  /// Anchor of train window `window`.
  [[nodiscard]] sim::TimePoint train_anchor(std::uint32_t window) const {
    return train_.first + train_.step * static_cast<std::int64_t>(window);
  }

 private:
  static constexpr unsigned kUpdateDelayEvents = 6;
  /// Longest idle run one heap entry covers. The supervision timeout bounds
  /// runs first (~30 events at 2 s / 75 ms); this only caps runs of
  /// connections with a very long timeout.
  static constexpr std::uint32_t kMaxTrainWindows = 512;
  /// Real idle events in a row before an idle run may start. A link that
  /// just carried data usually gets more within an interval or two (the
  /// next fragment, credits, the response), and a train that is settled
  /// before it skips two events costs more than the events it saves.
  static constexpr std::uint8_t kQuietEventsBeforeTrain = 3;

  [[nodiscard]] std::deque<LlPdu>& queue_of(Role r) {
    return r == Role::kCoordinator ? coord_q_ : sub_q_;
  }
  [[nodiscard]] const std::deque<LlPdu>& queue_of(Role r) const {
    return r == Role::kCoordinator ? coord_q_ : sub_q_;
  }

  void claim_event_slots(sim::TimePoint anchor);
  /// Arms the event at `anchor`. Its scheduling instant orders it among
  /// events due at the same instant: now for an event armed by a real one;
  /// for one armed for a train (`train_armed`: its arming event was
  /// skipped), one train step before the anchor.
  void schedule_event(sim::TimePoint anchor, bool train_armed);
  /// Arms the horizon: the event at the train's last window.
  void schedule_horizon();
  void on_conn_event(sim::TimePoint anchor, bool train_armed);
  /// The per-event step shared by real and skipped events: channel, the
  /// exchange or the missed-event accounting, supervision, the event counter
  /// and its instants, and the next anchor. A skipped event uses the link PER
  /// sampled when its train started. Returns false when the supervision
  /// timeout closed the connection.
  bool run_event(sim::TimePoint anchor, bool skipped);
  /// Runs the TX/RX pair loop; returns true when the subordinate received at
  /// least one valid PDU (it resynchronised its sleep clock).
  bool run_exchange(sim::TimePoint anchor, std::uint8_t channel, double link_per);
  /// Schedules the next event after a real one, or starts a claim train
  /// when the connection is idle.
  void arm_next_event();
  /// Number of windows an idle run starting at the next anchor may skip
  /// through (0 or 1: none).
  [[nodiscard]] std::uint32_t idle_run_windows();
  /// Runs the skipped events of the first `n` train windows and leaves the
  /// grants of window n (the held one) in the hot state.
  void run_skipped(std::uint32_t n);
  /// run_skipped(n), then drops the train.
  void end_train(std::uint32_t n);
  [[nodiscard]] bool find_denial(std::uint32_t window, bool widened) const;
  void add_denial(const TrainDenial& d);
  /// Drops the denials of windows `window` and later.
  void drop_denials_from(std::uint32_t window);
  /// Undoes the denials this train wins with windows anchored at or after
  /// `from`, when it ends or is cut before them: a loser that has not
  /// claimed its window yet is cut there, the others stay denied.
  void release_wins(sim::TimePoint from);
  /// False when every loser of a denial this train won has made its claim.
  [[nodiscard]] bool wins_pending() const;
  void deliver_later(Role to, LlPdu pdu, sim::TimePoint at);
  void terminate(DisconnectReason reason);
  [[nodiscard]] sim::Duration window_widening(sim::TimePoint at) const;
  /// Window widening `since` the subordinate's last resynchronisation.
  [[nodiscard]] sim::Duration widening(sim::Duration since) const;

  sim::Simulator& sim_;
  BleWorld& world_;
  ConnId id_;
  Controller& coord_;
  Controller& sub_;
  ConnParams params_;
  ConnectionConfig config_;
  std::uint32_t access_address_;
  ChannelMap chmap_;
  ChannelSelection chan_sel_;
  LinkStats& stats_;
  ConnHot& hot_;
  sim::Rng rng_;

  std::deque<LlPdu> coord_q_;
  std::deque<LlPdu> sub_q_;

  std::optional<ConnParams> pending_params_;
  std::uint16_t apply_params_at_{0};
  std::optional<ChannelMap> pending_chmap_;
  std::uint16_t apply_chmap_at_{0};

  // Adaptive-hopping PER estimation (sliding window, coordinator side).
  std::array<std::uint32_t, 37> afh_tx_{};
  std::array<std::uint32_t, 37> afh_fail_{};
  void afh_note(std::uint8_t channel, bool ok);
  void afh_evaluate();

  L2capCoc coc_;

  ClaimTrain train_;         // windows == 0: not fast-forwarding
  double train_link_per_{0.0};
  std::vector<TrainDenial> denials_;  // of this train's windows, by window
  std::uint32_t wins_{0};             // denials of other trains naming this one
  sim::TimePoint wins_claimed_by_;    // the latest claim instant of those denials
  RunEnd run_end_{RunEnd::kBudget};

  friend class BleWorld;
  std::uint32_t train_slot_{0};  // index in BleWorld's fast-forward list
};

}  // namespace mgap::ble
