#pragma once
// Per-node radio arbitration.
//
// Every BLE activity (a connection event, an advertising event) must reserve
// the node's single radio for a time slot before it can run. Reservations are
// granted strictly first-come: a claim that overlaps an existing one is
// denied and the corresponding event is skipped. This mirrors NimBLE's link-
// layer scheduler and is the mechanism behind *connection shading*
// (section 6.1): two connections with equal intervals that drift into overlap
// starve the later claimer until its supervision timeout fires.

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/ids.hpp"
#include "sim/time.hpp"

namespace mgap::obs {
class Recorder;
}

namespace mgap::ble {

class Connection;

/// The claims a fast-forwarded connection would make, one per connection
/// event, while it stays idle: window i (0 <= i < windows) covers
/// [a_i - ww_i, a_i + slot + ww_i) with a_i = first + i * step. Event by
/// event, the table would hold only the connection's *held* window, the first
/// whose anchor has not passed; later windows are claims it has yet to make.
/// The window widening ww_i is exact for window 0 (`ww_first`) and lies in
/// [ww_min, ww_max] after it (it depends on PER draws not made yet); it is
/// zero on the coordinator's side.
struct ClaimTrain {
  Connection* conn{nullptr};
  std::uint64_t owner{0};
  sim::TimePoint first;
  sim::Duration step;
  sim::Duration slot;
  std::uint32_t windows{0};
  sim::Duration ww_first;
  sim::Duration ww_min;
  sim::Duration ww_max;
};

/// A window of one train that may overlap a window of another: indices into
/// each train, `a == a.windows` when there is none.
struct TrainCollision {
  std::uint32_t a;
  std::uint32_t b;
};

/// How a collision between window i of a new train `a` and window j of a
/// train `b` on one node resolves event by event, when the arithmetic can
/// tell: the earlier claimer wins if it still holds its window when the
/// other claims (a window is held from its claim instant, one step before
/// its anchor, until its anchor). Anything else is left to a real event.
enum class Contest : std::uint8_t {
  kAWins,
  kBWins,
  kThreeParty,  // another claim or train window (or a recorded denial) is involved
  kWidening,    // the overlap depends on widening not drawn yet
  kOrder,       // tied claim instants, or the first claimer releases first
};

class RadioScheduler {
 public:
  /// Attaches the typed event recorder: every claim outcome is emitted as an
  /// obs kRadioClaim, timestamped at the *window start* — exactly what the
  /// offline shading analyzer needs. Null detaches.
  void set_recorder(obs::Recorder* recorder, NodeId node) {
    recorder_ = recorder;
    node_ = node;
  }

  /// Attempts to reserve [start, end) for `owner`. Returns false (and leaves
  /// the table unchanged) when the span overlaps any existing claim. Against
  /// a claim train: the held window counts like a claim (when the draws not
  /// made yet decide the overlap, the train's connection catches up first),
  /// unless it is recorded as denied on this node; a span that overlaps only
  /// a later window is granted and cuts the train short, so the event that
  /// would claim that window runs for real and is denied.
  bool try_claim(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner);

  /// Releases all claims held by `owner` (not its claim train).
  void release(std::uint64_t owner);

  /// Drops claims that ended before `t` (consumed slots).
  void prune_before(sim::TimePoint t);

  /// True when `owner` holds a claim covering instant `at`.
  [[nodiscard]] bool holds(std::uint64_t owner, sim::TimePoint at);

  /// Start of the next claim beginning strictly after `t`, ignoring claims of
  /// `exclude_owner`; TimePoint::max-like sentinel when none.
  [[nodiscard]] sim::TimePoint next_start_after(sim::TimePoint t,
                                                std::uint64_t exclude_owner);

  /// True when [start, end) is free of claims from owners other than `owner`.
  [[nodiscard]] bool is_free(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner);

  [[nodiscard]] std::uint64_t granted() const { return granted_; }
  [[nodiscard]] std::uint64_t denied() const { return denied_; }
  [[nodiscard]] std::size_t active_claims() const { return claims_.size(); }

  // --- claim trains (fast-forwarded connections, see ble/connection.hpp) ---
  /// Registers `train`; `widened` marks the subordinate's side.
  void add_train(ClaimTrain* train, bool widened) { trains_.push_back({train, widened}); }
  void drop_train(const ClaimTrain* train);
  /// Inserts a claim without the overlap check or a grant count: the held
  /// window of a settling train, whose grant the skipped event counted.
  void insert_claim(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner);
  /// Counts the claims made by skipped connection events.
  void count_train_claims(std::uint64_t granted, std::uint64_t denied) {
    granted_ += granted;
    denied_ += denied;
  }

  /// First window of `train` at or after `from` that may overlap
  /// [start, end), or `train.windows` when none.
  [[nodiscard]] static std::uint32_t first_overlap(const ClaimTrain& train, bool widened,
                                                   std::uint32_t from, sim::TimePoint start,
                                                   sim::TimePoint end);
  /// First window of `a` at or after `from_a` that may overlap a window of
  /// `b` at or after `from_b`, with the first such window of `b`.
  [[nodiscard]] static TrainCollision first_collision(const ClaimTrain& a, bool a_widened,
                                                      std::uint32_t from_a, const ClaimTrain& b,
                                                      bool b_widened, std::uint32_t from_b);
  /// Decides the collision of window i of `a` (a train about to start, not
  /// registered here) with window j of `b` (registered) on this node.
  [[nodiscard]] Contest contest(const ClaimTrain& a, bool a_widened, std::uint32_t i,
                                const ClaimTrain& b, bool b_widened, std::uint32_t j) const;
  /// Claims in the table, for the train horizon scan.
  template <typename F>
  void for_each_claim(F&& fn) const {
    for (const Claim& c : claims_) fn(c.start, c.end, c.owner);
  }
  template <typename F>
  void for_each_train(F&& fn) const {
    for (const TrainRef& t : trains_) fn(*t.train, t.widened);
  }

  [[nodiscard]] static constexpr sim::TimePoint never() {
    return sim::TimePoint::from_ns(std::numeric_limits<std::int64_t>::max());
  }

 private:
  struct Claim {
    sim::TimePoint start;
    sim::TimePoint end;
    std::uint64_t owner;
  };
  void record_claim(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner,
                    bool granted) const;

  struct TrainRef {
    ClaimTrain* train;
    bool widened;
  };
  [[nodiscard]] bool table_overlaps(sim::TimePoint start, sim::TimePoint end,
                                    std::uint64_t owner) const;
  /// True when the held window of another owner's train overlaps
  /// [start, end); catches that connection up when the answer depends on
  /// draws it has not made yet.
  [[nodiscard]] bool trains_overlap(sim::TimePoint start, sim::TimePoint end,
                                    std::uint64_t owner);

  std::vector<Claim> claims_;  // sorted by start
  std::vector<TrainRef> trains_;
  std::uint64_t granted_{0};
  std::uint64_t denied_{0};
  obs::Recorder* recorder_{nullptr};
  NodeId node_{kInvalidNode};
};

}  // namespace mgap::ble
