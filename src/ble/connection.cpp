#include "ble/connection.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "ble/controller.hpp"
#include "ble/world.hpp"
#include "obs/recorder.hpp"
#include "phy/ble_phy.hpp"
#include "sim/simulator.hpp"

namespace mgap::ble {

namespace {
constexpr sim::TimePoint kEarliest =
    sim::TimePoint::from_ns(std::numeric_limits<std::int64_t>::min());
}  // namespace

const char* to_string(RunEnd why) {
  switch (why) {
    case RunEnd::kBudget: return "budget";
    case RunEnd::kCap: return "cap";
    case RunEnd::kPending: return "pending";
    case RunEnd::kClaim: return "claim";
    case RunEnd::kCollision: return "collision";
    case RunEnd::kCut: return "cut";
    case RunEnd::kInvalidated: return "invalidated";
    case RunEnd::kSettled: return "settled";
  }
  return "?";
}

Connection::Connection(sim::Simulator& sim, BleWorld& world, ConnId id, Controller& coord,
                       Controller& sub, const ConnParams& params,
                       sim::TimePoint first_anchor, std::uint32_t access_address,
                       const ChannelMap& chmap, LinkStats& stats, ConnHot& hot,
                       const ConnectionConfig& config, sim::Rng rng)
    : sim_{sim},
      world_{world},
      id_{id},
      coord_{coord},
      sub_{sub},
      params_{params},
      config_{config},
      access_address_{access_address},
      chmap_{chmap},
      chan_sel_{params.csa, access_address,
                static_cast<std::uint8_t>(5 + access_address % 12)},
      stats_{stats},
      hot_{hot},
      rng_{rng},
      coc_{*this, coord.config().l2cap} {
  hot_.anchor = first_anchor;
  hot_.last_valid_rx_coord = first_anchor;
  hot_.last_valid_rx_sub = first_anchor;
  hot_.last_sub_sync = first_anchor;
}

Controller& Connection::node(Role r) const {
  return r == Role::kCoordinator ? coord_ : sub_;
}

Role Connection::role_of(const Controller& c) const {
  assert(&c == &coord_ || &c == &sub_);
  return &c == &coord_ ? Role::kCoordinator : Role::kSubordinate;
}

Controller& Connection::peer_of(const Controller& c) const {
  return node(other(role_of(c)));
}

std::size_t Connection::queued_bytes(Role from) const {
  std::size_t total = 0;
  for (const LlPdu& p : queue_of(from)) total += p.payload.size();
  return total;
}

void Connection::start() {
  assert(!hot_.open);
  hot_.open = true;
  claim_event_slots(hot_.anchor);
  schedule_event(hot_.anchor, false);
}

void Connection::close(DisconnectReason reason) {
  terminate(reason);
}

bool Connection::enqueue(Role from, LlPdu pdu) {
  if (!hot_.open) return false;
  settle();  // data ends an idle run
  Controller& sender = node(from);
  if (!sender.pool_alloc(pdu.payload.size())) return false;
  queue_of(from).push_back(std::move(pdu));
  return true;
}

void Connection::request_param_update(const ConnParams& params) {
  settle();
  pending_params_ = params;
  apply_params_at_ = static_cast<std::uint16_t>(hot_.event_counter + kUpdateDelayEvents);
}

void Connection::request_channel_map_update(const ChannelMap& map) {
  assert(map.used_count() >= 2);
  settle();
  pending_chmap_ = map;
  apply_chmap_at_ = static_cast<std::uint16_t>(hot_.event_counter + kUpdateDelayEvents);
}

void Connection::afh_note(std::uint8_t channel, bool ok) {
  if (!config_.adaptive_channel_map) return;
  ++afh_tx_[channel];
  if (!ok) ++afh_fail_[channel];
}

void Connection::afh_evaluate() {
  // Exclude channels whose observed PER exceeds the threshold, worst first,
  // while keeping at least afh_min_channels usable.
  ChannelMap map = chmap_;
  struct Bad {
    std::uint8_t ch;
    double per;
  };
  std::vector<Bad> bad;
  for (std::uint8_t ch = 0; ch < 37; ++ch) {
    if (!map.is_used(ch) || afh_tx_[ch] < config_.afh_min_samples) continue;
    const double per =
        static_cast<double>(afh_fail_[ch]) / static_cast<double>(afh_tx_[ch]);
    if (per > config_.afh_per_threshold) bad.push_back(Bad{ch, per});
  }
  std::sort(bad.begin(), bad.end(),
            [](const Bad& a, const Bad& b) { return a.per > b.per; });
  bool changed = false;
  for (const Bad& b : bad) {
    if (map.used_count() <= config_.afh_min_channels) break;
    map.exclude(b.ch);
    changed = true;
  }
  if (changed) request_channel_map_update(map);
  // Exponential decay instead of a hard reset: per-channel evidence (only a
  // handful of draws land on each of 37 channels per window) accumulates
  // across windows while old observations age out.
  for (std::size_t ch = 0; ch < 37; ++ch) {
    afh_tx_[ch] /= 2;
    afh_fail_[ch] /= 2;
  }
}

sim::Duration Connection::window_widening(sim::TimePoint at) const {
  return widening(sim::max(at - hot_.last_sub_sync, sim::Duration{}));
}

sim::Duration Connection::widening(sim::Duration since) const {
  const double combined_ppm =
      std::abs(coord_.clock().drift_ppm()) + std::abs(sub_.clock().drift_ppm());
  const sim::Duration ww = since.scaled(combined_ppm * 1e-6) + config_.ww_margin;
  return sim::min(ww, params_.interval / 2);
}

void Connection::claim_event_slots(sim::TimePoint anchor) {
  // A powered-down radio (crash fault) grants nothing; the connection keeps
  // missing events until the supervision timeout fires.
  hot_.coord_granted = coord_.radio_on() &&
                   coord_.scheduler().try_claim(anchor, anchor + config_.reserve_slot, id_);
  // Subordinate latency: with empty queues the subordinate may sleep through
  // up to `subordinate_latency` events (section 2.2, energy optimization).
  if (params_.subordinate_latency > 0 && sub_q_.empty() &&
      hot_.latency_skips < params_.subordinate_latency) {
    ++hot_.latency_skips;
    hot_.sub_granted = false;
    hot_.sub_intentional_skip = true;
    return;
  }
  hot_.latency_skips = 0;
  hot_.sub_intentional_skip = false;
  const sim::Duration ww = window_widening(anchor);
  hot_.sub_granted =
      sub_.radio_on() &&
      sub_.scheduler().try_claim(anchor - ww, anchor + config_.reserve_slot + ww, id_);
}

void Connection::shift_anchor(sim::Duration delta) {
  if (!hot_.open) return;
  settle();
  sim_.cancel(hot_.next_event);
  coord_.scheduler().release(id_);
  sub_.scheduler().release(id_);
  hot_.anchor = sim::max(hot_.anchor + delta, sim_.now());
  claim_event_slots(hot_.anchor);
  schedule_event(hot_.anchor, false);
}

void Connection::schedule_event(sim::TimePoint anchor, bool train_armed) {
  const sim::TimePoint scheduled_at = train_armed ? anchor - train_.step : sim_.now();
  hot_.next_event = sim_.schedule_at(anchor, scheduled_at, [this, anchor, train_armed] {
    on_conn_event(anchor, train_armed);
  });
}

void Connection::on_conn_event(sim::TimePoint anchor, bool train_armed) {
  if (!hot_.open) return;
  // Event by event, this event and one due at the same instant that was
  // scheduled at the same instant would fire in the order their arming
  // events ran, and one of those never ran.
  if (train_armed && sim_.running_tied()) world_.note_train_tie();
  // A horizon event: the skipped events before it run first.
  if (fast_forwarding()) {
    world_.note_run_end(run_end_);
    end_train(train_.windows - 1);
  }
  assert(hot_.anchor == anchor);
  hot_.quiet_events = coord_q_.empty() && sub_q_.empty()
                          ? static_cast<std::uint8_t>(std::min(hot_.quiet_events + 1, 255))
                          : std::uint8_t{0};
  if (!run_event(anchor, false)) return;
  coord_.scheduler().release(id_);
  sub_.scheduler().release(id_);
  claim_event_slots(hot_.anchor);
  arm_next_event();
}

bool Connection::run_event(sim::TimePoint anchor, bool skipped) {
  const std::uint8_t channel = chan_sel_.channel_for_event(hot_.event_counter, chmap_);

  if (hot_.coord_granted) ++coord_.activity_counters().conn_events_coord;
  if (hot_.sub_granted) ++sub_.activity_counters().conn_events_sub;

  if (hot_.coord_granted && hot_.sub_granted) {
    const double link_per =
        skipped ? train_link_per_ : world_.link_per(coord_.id(), sub_.id());
    const bool synced = run_exchange(anchor, channel, link_per);
    if (synced) hot_.last_sub_sync = anchor;
  } else if (!hot_.sub_intentional_skip) {
    ++stats_.events_missed;
    if (obs::Recorder* rec = world_.recorder();
        rec != nullptr && rec->wants(obs::EventType::kConnEventMissed)) {
      obs::Event e;
      e.at = anchor;
      e.type = obs::EventType::kConnEventMissed;
      e.chan = channel;
      e.flags = static_cast<std::uint16_t>(
          (hot_.coord_granted ? obs::kEvCoordGranted : 0) |
          (hot_.sub_granted ? obs::kEvSubGranted : 0));
      e.node = coord_.id();
      e.id = id_;
      e.b = hot_.event_counter;
      rec->record(e);
    }
    // A transmitting coordinator whose subordinate is shaded away burns a
    // data-PDU attempt without delivery — this is the per-channel-even link
    // degradation of Figure 12.
    if (hot_.coord_granted && !hot_.sub_granted && !coord_q_.empty()) {
      ++stats_.pdu_tx;
      ++stats_.chan_tx[channel];
      ++stats_.pdu_retrans;
    }
  }

  // Supervision: too long without a valid packet on either side kills the
  // connection (section 2.2); this is the loss mechanism of section 6.1.
  // Intentional latency skips refresh nothing — the configuration must keep
  // the timeout above (latency + 1) * interval, as the spec demands.
  if (anchor - hot_.last_valid_rx_coord > params_.supervision_timeout ||
      anchor - hot_.last_valid_rx_sub > params_.supervision_timeout) {
    terminate(DisconnectReason::kSupervisionTimeout);
    return false;
  }

  ++hot_.event_counter;
  if (pending_params_ && hot_.event_counter == apply_params_at_) {
    params_ = *pending_params_;
    pending_params_.reset();
  }
  if (pending_chmap_ && hot_.event_counter == apply_chmap_at_) {
    chmap_ = *pending_chmap_;
    pending_chmap_.reset();
  }
  if (config_.adaptive_channel_map && !pending_chmap_ &&
      hot_.event_counter % config_.afh_eval_events == 0) {
    afh_evaluate();
  }

  // The coordinator's sleep clock advances the anchor: nominal interval
  // stretched by its drift. This is where clock drift enters the system.
  hot_.anchor = anchor + coord_.clock().local_to_global(params_.interval);
  return true;
}

void Connection::arm_next_event() {
  const std::uint32_t windows = idle_run_windows();
  if (windows < 2) {
    schedule_event(hot_.anchor, false);
    return;
  }
  train_link_per_ = world_.link_per(coord_.id(), sub_.id());
  // The window just claimed becomes train window 0.
  coord_.scheduler().release(id_);
  sub_.scheduler().release(id_);
  coord_.scheduler().add_train(&train_, false);
  sub_.scheduler().add_train(&train_, true);
  world_.train_started(*this);
  schedule_horizon();
}

std::uint32_t Connection::idle_run_windows() {
  if (!hot_.coord_granted || !hot_.sub_granted || !coord_q_.empty() || !sub_q_.empty() ||
      hot_.quiet_events < kQuietEventsBeforeTrain || params_.subordinate_latency > 0 ||
      !world_.fast_forward_allowed()) {
    return 0;
  }
  const sim::TimePoint a0 = hot_.anchor;
  const sim::Duration step = coord_.clock().local_to_global(params_.interval);
  // Supervision: a skipped event must pass the timeout check even if no
  // packet gets through from now on; the first one that might not runs for
  // real (skipped anchors a_0 .. a_{w-2} stay within the timeout).
  const sim::Duration budget =
      sim::min(hot_.last_valid_rx_coord, hot_.last_valid_rx_sub) +
      params_.supervision_timeout - a0;
  if (budget.is_negative()) return 0;
  const std::int64_t budget_windows = budget / step + 2;
  auto w = static_cast<std::uint32_t>(std::min<std::int64_t>(budget_windows, kMaxTrainWindows));
  RunEnd why = budget_windows > kMaxTrainWindows ? RunEnd::kCap : RunEnd::kBudget;
  // The event that reaches a pending update instant or an AFH evaluation
  // (by its incremented counter) runs for real.
  if (pending_params_ || pending_chmap_ || config_.adaptive_channel_map) {
    for (std::uint32_t k = 0; k + 1 < w; ++k) {
      const auto c = static_cast<std::uint16_t>(hot_.event_counter + k + 1);
      if ((pending_params_ && c == apply_params_at_) ||
          (pending_chmap_ && c == apply_chmap_at_) ||
          (config_.adaptive_channel_map && c % config_.afh_eval_events == 0)) {
        w = k + 1;
        why = RunEnd::kPending;
        break;
      }
    }
  }
  if (w < 2) return 0;

  ClaimTrain t;
  t.conn = this;
  t.owner = id_;
  t.first = a0;
  t.step = step;
  t.slot = config_.reserve_slot;
  t.windows = w;
  t.ww_first = window_widening(a0);
  // Widening grows while no packet resynchronises the subordinate: one
  // interval after a sync at the least, and the last window bounds it.
  t.ww_min = widening(step);
  t.ww_max = window_widening(a0 + step * static_cast<std::int64_t>(w - 1));
  if (t.slot + sim::max(t.ww_first, t.ww_max) * 2 >= step) return 0;

  // Window i (>= 1) is claimed by the event at a_{i-1}: the first that may
  // overlap a claim already in either table is claimed by a real event.
  Contest fallback = Contest::kOrder;
  const auto end_at = [&](std::uint32_t windows, RunEnd reason) {
    if (windows >= t.windows) return false;
    t.windows = windows;
    why = reason;
    return true;
  };
  for (const bool widened : {false, true}) {
    RadioScheduler& sched = widened ? sub_.scheduler() : coord_.scheduler();
    sched.for_each_claim([&](sim::TimePoint start, sim::TimePoint end, std::uint64_t owner) {
      if (owner == id_) return;
      end_at(RadioScheduler::first_overlap(t, widened, 1, start, end), RunEnd::kClaim);
    });
  }
  // Another train's window: a certain two-party collision is decided here
  // (RadioScheduler::contest) and the loser's window recorded as denied; the
  // first other one is claimed by a real event. The other train needs no cut
  // for that: if it claims its window first, that claim is granted event by
  // event too (ours is not made yet) and ours is denied; if ours comes
  // first, try_claim cuts it.
  struct Decided {
    std::uint32_t i;
    std::uint32_t j;
    bool widened;
    bool other_widened;
    bool ours;
    Connection* other;
  };
  thread_local std::vector<Decided> decided;
  decided.clear();
  for (const bool widened : {false, true}) {
    RadioScheduler& sched = widened ? sub_.scheduler() : coord_.scheduler();
    sched.for_each_train([&](const ClaimTrain& other, bool other_widened) {
      std::uint32_t from_a = 1;
      std::uint32_t from_b = other.conn->train_held();
      while (true) {
        const TrainCollision c = RadioScheduler::first_collision(t, widened, from_a, other,
                                                                 other_widened, from_b);
        if (c.a >= t.windows) return;
        const Contest verdict = sched.contest(t, widened, c.a, other, other_widened, c.b);
        if (verdict != Contest::kAWins && verdict != Contest::kBWins) {
          if (end_at(c.a, RunEnd::kCollision)) fallback = verdict;
          return;
        }
        decided.push_back(
            {c.a, c.b, widened, other_widened, verdict == Contest::kAWins, other.conn});
        from_a = c.a + 1;
        from_b = c.b + 1;
      }
    });
  }
  if (t.windows < 2) return 0;
  train_ = t;
  run_end_ = why;
  if (why == RunEnd::kCollision) world_.note_collision(fallback);
  for (const Decided& d : decided) {
    if (d.i >= train_.windows) continue;
    world_.note_collision(d.ours ? Contest::kAWins : Contest::kBWins);
    if (d.ours) {
      d.other->add_denial({d.j, d.other_widened, this, train_anchor(d.i)});
    } else {
      add_denial({d.i, d.widened, d.other, d.other->train_anchor(d.j)});
    }
  }
  return train_.windows;
}

void Connection::run_skipped(std::uint32_t n) {
  // Window i's grants decide event i (the shared step does the missed-event
  // accounting); event i claimed window i + 1, granted on both nodes unless
  // recorded as denied.
  std::uint64_t denied[2] = {0, 0};  // coordinator's node, subordinate's node
  auto next = denials_.begin();
  for (std::uint32_t i = 0;; ++i) {
    bool granted[2] = {true, true};
    for (; next != denials_.end() && next->window == i; ++next) {
      granted[next->widened ? 1 : 0] = false;
      if (i > 0) ++denied[next->widened ? 1 : 0];
    }
    hot_.coord_granted = granted[0];
    hot_.sub_granted = granted[1];
    if (i == n) break;
    const bool open = run_event(train_anchor(i), true);
    assert(open);
    (void)open;
  }
  coord_.scheduler().count_train_claims(n - denied[0], denied[0]);
  sub_.scheduler().count_train_claims(n - denied[1], denied[1]);
}

bool Connection::find_denial(std::uint32_t window, bool widened) const {
  return std::any_of(denials_.begin(), denials_.end(), [&](const TrainDenial& d) {
    return d.window == window && d.widened == widened;
  });
}

void Connection::add_denial(const TrainDenial& d) {
  assert(d.window > 0 && d.window < train_.windows);
  const auto pos = std::upper_bound(
      denials_.begin(), denials_.end(), d.window,
      [](std::uint32_t w, const TrainDenial& x) { return w < x.window; });
  denials_.insert(pos, d);
  ++d.winner->wins_;
  d.winner->wins_claimed_by_ = sim::max(d.winner->wins_claimed_by_, train_anchor(d.window - 1));
}

void Connection::drop_denials_from(std::uint32_t window) {
  while (!denials_.empty() && denials_.back().window >= window) {
    if (denials_.back().winner != nullptr) --denials_.back().winner->wins_;
    denials_.pop_back();
  }
}

bool Connection::wins_pending() const {
  return wins_ > 0 && sim_.now() <= wins_claimed_by_;
}

void Connection::release_wins(sim::TimePoint from) {
  while (wins_ > 0) {
    Connection* loser = nullptr;
    TrainDenial* denial = nullptr;
    for (Controller* node : {&coord_, &sub_}) {
      node->scheduler().for_each_train([&](const ClaimTrain& t, bool) {
        for (TrainDenial& d : t.conn->denials_) {
          if (denial == nullptr && d.winner == this && d.winner_anchor >= from) {
            loser = t.conn;
            denial = &d;
          }
        }
      });
    }
    if (denial == nullptr) return;
    if (loser->train_held() < denial->window) {
      loser->cut_train(denial->window, RunEnd::kInvalidated);  // drops the denial
    } else {
      denial->winner = nullptr;  // the loser's claim is made: it stays denied
      --wins_;
    }
  }
}

void Connection::catch_up() {
  const std::uint32_t held = train_held();
  if (held == 0) return;
  run_skipped(held);
  if (!denials_.empty()) {
    auto kept = denials_.begin();
    for (; kept != denials_.end() && kept->window < held; ++kept) {
      if (kept->winner != nullptr) --kept->winner->wins_;
    }
    denials_.erase(denials_.begin(), kept);
    for (TrainDenial& d : denials_) d.window -= held;
  }
  train_.first = hot_.anchor;
  train_.windows -= held;
  train_.ww_first = window_widening(hot_.anchor);
}

void Connection::end_train(std::uint32_t n) {
  run_skipped(n);
  drop_denials_from(0);
  coord_.scheduler().drop_train(&train_);
  sub_.scheduler().drop_train(&train_);
  world_.train_ended(*this);
  train_.windows = 0;
  if (wins_pending()) release_wins(kEarliest);
}

std::uint32_t Connection::train_held() const {
  const std::int64_t since = (sim_.now() - train_.first).count_ns();
  const std::int64_t step = train_.step.count_ns();
  if (since < 0) return 0;
  if (!sim_.dispatching()) return static_cast<std::uint32_t>(since / step + 1);
  // One division: passed = ceil(since / step).
  std::int64_t passed = since / step;
  if (since % step != 0) {
    ++passed;
  } else {
    // An anchor equals now. Event by event its event was scheduled by the
    // one before it, and the heap fires same-instant events in scheduling
    // order: it has passed when it was scheduled before the running event.
    const sim::TimePoint scheduled = train_.first + train_.step * (passed - 1);
    if (scheduled == sim_.running_scheduled_at()) world_.note_train_tie();
    if (scheduled < sim_.running_scheduled_at()) ++passed;
  }
  assert(passed < train_.windows);
  return static_cast<std::uint32_t>(passed);
}

void Connection::settle() {
  if (!fast_forwarding()) return;
  world_.note_run_end(RunEnd::kSettled);
  end_train(train_held());
  // The held window becomes an ordinary claim where it is granted (its
  // grant is counted) and its event a real heap entry.
  sim_.cancel(hot_.next_event);
  const sim::TimePoint a = hot_.anchor;
  const sim::Duration ww = window_widening(a);
  if (hot_.coord_granted) coord_.scheduler().insert_claim(a, a + config_.reserve_slot, id_);
  if (hot_.sub_granted) {
    sub_.scheduler().insert_claim(a - ww, a + config_.reserve_slot + ww, id_);
  }
  schedule_event(a, true);
}

void Connection::cut_train(std::uint32_t windows, RunEnd why) {
  if (windows >= train_.windows) return;
  assert(windows > train_held());
  train_.windows = windows;
  run_end_ = why;
  drop_denials_from(windows);
  sim_.cancel(hot_.next_event);
  schedule_horizon();
  if (wins_pending()) release_wins(train_anchor(windows));
}

void Connection::schedule_horizon() {
  schedule_event(train_anchor(train_.windows - 1), true);
}

bool Connection::run_exchange(sim::TimePoint anchor, std::uint8_t channel,
                              double link_per) {
  // Usable window: up to the own next event or the next radio claim of either
  // node, whichever comes first, minus one IFS for radio turnaround
  // (Figure 3 / Figure 4 semantics). With both queues empty the loop ends
  // after the mandatory first pair, which never reads the window.
  sim::TimePoint wend = anchor + params_.interval;
  if (!coord_q_.empty() || !sub_q_.empty()) {
    wend = sim::min(wend, coord_.scheduler().next_start_after(anchor, id_));
    wend = sim::min(wend, sub_.scheduler().next_start_after(anchor, id_));
  }
  wend = wend - phy::kIfs;

  // Delivery rolls against the *receiver's* regional channel model; both
  // resolve to the same global model unless localized interference installed
  // per-node overrides (then RNG draw order is still direction-independent).
  const phy::ChannelModel& cm_c2s = world_.channel_model_for(sub_.id());
  const phy::ChannelModel& cm_s2c = world_.channel_model_for(coord_.id());
  obs::Recorder* rec = world_.recorder();
  const bool rec_pdu = rec != nullptr && rec->wants(obs::EventType::kPduTx);
  sim::TimePoint t = anchor;
  unsigned pairs = 0;
  bool sub_synced = false;
  bool aborted = false;
  bool coord_freed = false;
  bool sub_freed = false;

  while (true) {
    const bool c_has = !coord_q_.empty();
    const bool s_has = !sub_q_.empty();
    const std::size_t c_len = c_has ? coord_q_.front().air_payload() : 0;
    const std::size_t s_len = s_has ? sub_q_.front().air_payload() : 0;
    const sim::Duration pt = phy::pair_time(c_len, s_len, params_.phy);

    // The first pair is the mandatory sync exchange and always runs; further
    // pairs must fit the window and the per-event budget.
    if (pairs > 0 && (t + pt > wend || pairs >= config_.max_pairs_per_event)) break;

    // Coordinator -> subordinate PDU.
    if (c_has) {
      ++stats_.pdu_tx;
      ++stats_.chan_tx[channel];
    }
    coord_.activity_counters().bytes_tx += c_len + phy::kLlOverheadBytes;
    sub_.activity_counters().bytes_rx += c_len + phy::kLlOverheadBytes;
    coord_.activity_counters().data_bytes_tx += c_len;
    sub_.activity_counters().data_bytes_rx += c_len;
    const bool c2s_ok = cm_c2s.deliver(channel, rng_) && !rng_.chance(link_per);
    afh_note(channel, c2s_ok);
    if (rec_pdu && c_has) {
      obs::Event e;
      e.at = t;
      e.type = obs::EventType::kPduTx;
      e.chan = channel;
      e.flags = static_cast<std::uint16_t>((c2s_ok ? obs::kPduCrcOk : 0) |
                                           (hot_.coord_retry ? obs::kPduRetrans : 0));
      e.node = coord_.id();
      e.id = id_;
      e.a = access_address_;
      e.b = static_cast<std::uint32_t>(
          phy::ll_airtime(c_len, params_.phy).count_ns());
      rec->record(e, coord_q_.front().payload);
    }
    if (!c2s_ok) {
      if (c_has) {
        ++stats_.pdu_retrans;
        hot_.coord_retry = true;
      }
      aborted = true;  // CRC error closes the connection event (section 5.2)
      break;
    }
    sub_synced = true;
    hot_.last_valid_rx_sub = t + phy::ll_airtime(c_len, params_.phy);

    // Subordinate -> coordinator PDU (reply after one IFS).
    if (s_has) {
      ++stats_.pdu_tx;
      ++stats_.chan_tx[channel];
    }
    sub_.activity_counters().bytes_tx += s_len + phy::kLlOverheadBytes;
    coord_.activity_counters().bytes_rx += s_len + phy::kLlOverheadBytes;
    sub_.activity_counters().data_bytes_tx += s_len;
    coord_.activity_counters().data_bytes_rx += s_len;
    const bool s2c_ok = cm_s2c.deliver(channel, rng_) && !rng_.chance(link_per);
    afh_note(channel, s2c_ok);
    if (rec_pdu && s_has) {
      obs::Event e;
      e.at = t + phy::ll_airtime(c_len, params_.phy) + phy::kIfs;
      e.type = obs::EventType::kPduTx;
      e.chan = channel;
      e.flags = static_cast<std::uint16_t>(
          obs::kPduSubToCoord | (s2c_ok ? obs::kPduCrcOk : 0) |
          (hot_.sub_retry ? obs::kPduRetrans : 0));
      e.node = sub_.id();
      e.id = id_;
      e.a = access_address_;
      e.b = static_cast<std::uint32_t>(
          phy::ll_airtime(s_len, params_.phy).count_ns());
      rec->record(e, sub_q_.front().payload);
    }
    if (!s2c_ok) {
      // The reply carried both the subordinate's data and the ack for the
      // coordinator's PDU: both sides retransmit next event.
      if (c_has) {
        ++stats_.pdu_retrans;
        hot_.coord_retry = true;
      }
      if (s_has) {
        ++stats_.pdu_retrans;
        hot_.sub_retry = true;
      }
      aborted = true;
      break;
    }
    hot_.last_valid_rx_coord = t + pt - phy::kIfs;

    // Clean pair: commit deliveries and free sender buffers.
    const sim::TimePoint done = t + pt;
    if (c_has) coord_freed = true;
    if (s_has) sub_freed = true;
    if (c_has) {
      LlPdu pdu = std::move(coord_q_.front());
      coord_q_.pop_front();
      coord_.pool_free(pdu.payload.size());
      hot_.coord_retry = false;
      ++stats_.pdu_ok;
      ++stats_.chan_ok[channel];
      deliver_later(Role::kSubordinate, std::move(pdu), done);
    }
    if (s_has) {
      LlPdu pdu = std::move(sub_q_.front());
      sub_q_.pop_front();
      sub_.pool_free(pdu.payload.size());
      hot_.sub_retry = false;
      ++stats_.pdu_ok;
      ++stats_.chan_ok[channel];
      deliver_later(Role::kCoordinator, std::move(pdu), done);
    }

    ++pairs;
    if (pairs > 1) {
      ++coord_.activity_counters().packet_pairs;
      ++sub_.activity_counters().packet_pairs;
    }
    t = done;
    if (coord_q_.empty() && sub_q_.empty()) break;  // both MD flags clear
  }

  if (aborted) {
    ++stats_.events_aborted;
  } else {
    ++stats_.events_ok;
  }
  if (rec != nullptr && rec->wants(obs::EventType::kConnEvent)) {
    obs::Event e;
    e.at = anchor;
    e.type = obs::EventType::kConnEvent;
    e.chan = channel;
    e.flags = static_cast<std::uint16_t>((aborted ? obs::kEvAborted : 0) |
                                         (sub_synced ? obs::kEvSynced : 0));
    e.node = coord_.id();
    e.id = id_;
    e.a = pairs;
    e.b = hot_.event_counter;
    rec->record(e);
  }
  // Backpressure release: freed buffer space lets the host hand the next IP
  // packets down. Scheduled at the end of the exchange to keep causality.
  if (coord_freed || sub_freed) {
    sim_.schedule_at(t, [this, coord_freed, sub_freed] {
      if (coord_freed) coord_.notify_tx_space(*this);
      if (sub_freed) sub_.notify_tx_space(*this);
    });
  }
  return sub_synced;
}

void Connection::deliver_later(Role to, LlPdu pdu, sim::TimePoint at) {
  sim_.schedule_at(at, [this, to, pdu = std::move(pdu), at]() mutable {
    coc_.on_pdu_delivered(to, pdu, at);
  });
}

void Connection::terminate(DisconnectReason reason) {
  if (!hot_.open) return;
  settle();
  hot_.open = false;
  if (reason == DisconnectReason::kSupervisionTimeout) ++stats_.conn_losses;
  if (obs::Recorder* rec = world_.recorder();
      rec != nullptr && rec->wants(obs::EventType::kConnClose)) {
    obs::Event e;
    e.at = sim_.now();
    e.type = obs::EventType::kConnClose;
    e.flags = static_cast<std::uint16_t>(reason);
    e.node = coord_.id();
    e.id = id_;
    e.a = sub_.id();
    e.b = stats_.events_missed > 0xFFFFFFFFull
              ? 0xFFFFFFFFu
              : static_cast<std::uint32_t>(stats_.events_missed);
    rec->record(e);
  }
  sim_.cancel(hot_.next_event);
  coord_.scheduler().release(id_);
  sub_.scheduler().release(id_);
  // Data queued on a broken link is dropped (section 5.1).
  for (const LlPdu& p : coord_q_) coord_.pool_free(p.payload.size());
  for (const LlPdu& p : sub_q_) sub_.pool_free(p.payload.size());
  coord_q_.clear();
  sub_q_.clear();
  coord_.notify_close(*this, reason);
  sub_.notify_close(*this, reason);
}

}  // namespace mgap::ble
