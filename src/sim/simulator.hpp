#pragma once
// The simulation kernel facade: current time, scheduling, and run control.

#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mgap::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : seed_{seed} {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] TimePoint now() const { return now_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Creates an independent RNG stream. Call order does not matter; streams
  /// are keyed by an internally incremented id, so construct components in a
  /// deterministic order for bit-exact reproducibility.
  [[nodiscard]] Rng make_rng() { return Rng{seed_, next_stream_++}; }
  [[nodiscard]] Rng make_rng(std::uint64_t stream) const { return Rng{seed_, stream}; }

  EventId schedule_at(TimePoint at, EventQueue::Action action) {
    return queue_.schedule(max(at, now_), std::move(action), now_);
  }
  /// Schedules as if at simulated time `scheduled_at`: among events due at
  /// the same instant, it fires where an event scheduled then would. For an
  /// event whose scheduling event was never simulated (BLE fast-forward).
  EventId schedule_at(TimePoint at, TimePoint scheduled_at, EventQueue::Action action) {
    return queue_.schedule(max(at, now_), std::move(action), scheduled_at);
  }
  EventId schedule_in(Duration delay, EventQueue::Action action) {
    return schedule_at(now_ + max(delay, Duration{}), std::move(action));
  }
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs events until the queue is exhausted or `until` is reached.
  /// Events exactly at `until` are executed. Then runs the pause hooks.
  /// Returns the number of events run.
  std::uint64_t run_until(TimePoint until);

  /// True while an event's action runs; false between run_until calls and
  /// inside pause hooks.
  [[nodiscard]] bool dispatching() const { return dispatching_; }
  /// When the running event was scheduled (see schedule_at). At one instant
  /// the heap fires events in that order, so this orders the running event
  /// against one that was never put on the heap (a fast-forwarded one).
  [[nodiscard]] TimePoint running_scheduled_at() const { return running_scheduled_at_; }
  /// True when the event that ran just before the running one, or the next
  /// live one, is due at the same instant and was scheduled at the same
  /// instant: the heap ordered the two by scheduling order alone.
  [[nodiscard]] bool running_tied() const {
    return tied_previous_ || (!queue_.empty() && queue_.next_time() == now_ &&
                              queue_.next_scheduled_at() == running_scheduled_at_);
  }

  /// Registers `fn` to run whenever run_until returns, after its last event:
  /// a component that simulates lazily (BLE fast-forward) brings its state
  /// up to now() there, so code between run_until calls reads and changes
  /// exact state. `key` names the hook for remove_pause_hook.
  void add_pause_hook(const void* key, std::function<void()> fn) {
    pause_hooks_.emplace_back(key, std::move(fn));
  }
  void remove_pause_hook(const void* key) {
    std::erase_if(pause_hooks_, [key](const auto& h) { return h.first == key; });
  }

  /// Runs until the queue empties.
  std::uint64_t run() { return run_until(TimePoint::from_ns(std::numeric_limits<std::int64_t>::max())); }

  [[nodiscard]] std::uint64_t events_fired() const { return queue_.fired_count(); }
  [[nodiscard]] std::uint64_t events_cancelled() const { return queue_.cancelled_count(); }
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }
  [[nodiscard]] bool idle() const { return queue_.empty(); }

 private:
  EventQueue queue_;
  std::vector<std::pair<const void*, std::function<void()>>> pause_hooks_;
  bool dispatching_{false};
  bool tied_previous_{false};
  TimePoint running_scheduled_at_{TimePoint::origin()};
  TimePoint now_{TimePoint::origin()};
  std::uint64_t seed_;
  std::uint64_t next_stream_{1};
};

}  // namespace mgap::sim
