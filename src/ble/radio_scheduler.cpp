#include "ble/radio_scheduler.hpp"

#include <algorithm>
#include <cassert>

#include "ble/connection.hpp"
#include "obs/recorder.hpp"

namespace mgap::ble {

namespace {

/// Bounds of window i's widening on one side of a train.
struct Widening {
  sim::Duration lo;
  sim::Duration hi;
};

Widening widening_of(const ClaimTrain& t, bool widened, std::uint32_t i) {
  if (!widened) return {};
  if (i == 0) return {t.ww_first, t.ww_first};
  return {t.ww_min, t.ww_max};
}

sim::TimePoint anchor_of(const ClaimTrain& t, std::uint32_t i) {
  return t.first + t.step * static_cast<std::int64_t>(i);
}

bool overlaps(sim::TimePoint a, sim::Duration slot, sim::Duration ww, sim::TimePoint start,
              sim::TimePoint end) {
  return start < a + slot + ww && a - ww < end;
}

}  // namespace

void RadioScheduler::record_claim(sim::TimePoint start, sim::TimePoint end,
                                  std::uint64_t owner, bool granted) const {
  obs::Event e;
  e.at = start;
  e.type = obs::EventType::kRadioClaim;
  e.flags = granted ? obs::kClaimGranted : 0;
  e.node = node_;
  e.id = owner;
  e.a = static_cast<std::uint32_t>((end - start).count_ns());
  recorder_->record(e);
}

std::uint32_t RadioScheduler::first_overlap(const ClaimTrain& train, bool widened,
                                            std::uint32_t from, sim::TimePoint start,
                                            sim::TimePoint end) {
  // Smallest i with a_i + slot + ww > start, using the widest widening.
  const sim::Duration widest =
      widened ? sim::max(train.ww_first, train.ww_max) : sim::Duration{};
  const std::int64_t r = (start - train.first - train.slot - widest).count_ns();
  std::uint32_t i = from;
  if (r >= 0) {
    i = std::max<std::uint32_t>(i, static_cast<std::uint32_t>(r / train.step.count_ns() + 1));
  }
  for (; i < train.windows; ++i) {
    const sim::TimePoint a = anchor_of(train, i);
    const sim::Duration ww = widening_of(train, widened, i).hi;
    if (a - ww >= end) break;
    if (start < a + train.slot + ww) return i;
  }
  return train.windows;
}

std::uint32_t RadioScheduler::first_collision(const ClaimTrain& a, bool a_widened,
                                              std::uint32_t from_a, const ClaimTrain& b,
                                              bool b_widened, std::uint32_t from_b) {
  const sim::Duration wa = a_widened ? sim::max(a.ww_first, a.ww_max) : sim::Duration{};
  const sim::Duration wb = b_widened ? sim::max(b.ww_first, b.ww_max) : sim::Duration{};
  // Windows [x - wa, x + slot_a + wa) and [y - wb, y + slot_b + wb) overlap
  // iff -(slot_b + wa + wb) < y - x < slot_a + wa + wb.
  const sim::Duration before = b.slot + wa + wb;
  const sim::Duration after = a.slot + wa + wb;
  std::uint32_t j = from_b;
  sim::TimePoint y = anchor_of(b, j);
  for (std::uint32_t i = from_a; i < a.windows; ++i) {
    const sim::TimePoint x = anchor_of(a, i);
    while (j < b.windows && y - x <= sim::Duration{} - before) {
      ++j;
      y = y + b.step;
    }
    if (j == b.windows) break;
    if (y - x < after) return i;
  }
  return a.windows;
}

bool RadioScheduler::table_overlaps(sim::TimePoint start, sim::TimePoint end,
                                    std::uint64_t owner) const {
  return std::any_of(claims_.begin(), claims_.end(), [&](const Claim& c) {
    return c.owner != owner && start < c.end && c.start < end;
  });
}

bool RadioScheduler::trains_overlap(sim::TimePoint start, sim::TimePoint end,
                                    std::uint64_t owner) {
  for (const TrainRef& t : trains_) {
    const ClaimTrain& train = *t.train;
    if (train.owner == owner) continue;
    std::uint32_t held = train.conn->train_held();
    Widening ww = widening_of(train, t.widened, held);
    if (!overlaps(anchor_of(train, held), train.slot, ww.hi, start, end)) continue;
    if (ww.lo != ww.hi &&
        !overlaps(anchor_of(train, held), train.slot, ww.lo, start, end)) {
      train.conn->catch_up();  // the held window becomes window 0, exact
      held = 0;
      ww = widening_of(train, t.widened, held);
      if (!overlaps(anchor_of(train, held), train.slot, ww.hi, start, end)) continue;
    }
    return true;
  }
  return false;
}

bool RadioScheduler::try_claim(sim::TimePoint start, sim::TimePoint end, std::uint64_t owner) {
  assert(start < end);
  const bool want_event =
      recorder_ != nullptr && recorder_->wants(obs::EventType::kRadioClaim);
  if (std::any_of(claims_.begin(), claims_.end(),
                  [&](const Claim& c) { return start < c.end && c.start < end; }) ||
      (!trains_.empty() && trains_overlap(start, end, owner))) {
    ++denied_;
    if (want_event) record_claim(start, end, owner, false);
    return false;
  }
  // Granted: a train whose later window overlaps would be denied when its
  // connection claims that window, so that event must run for real.
  for (const TrainRef& t : trains_) {
    if (first_overlap(*t.train, t.widened, 0, start, end) == t.train->windows) continue;
    const std::uint32_t held = t.train->conn->train_held();
    const std::uint32_t i = first_overlap(*t.train, t.widened, held + 1, start, end);
    if (i < t.train->windows) t.train->conn->cut_train(i);
  }
  insert_claim(start, end, owner);
  ++granted_;
  if (want_event) record_claim(start, end, owner, true);
  return true;
}

void RadioScheduler::insert_claim(sim::TimePoint start, sim::TimePoint end,
                                  std::uint64_t owner) {
  auto pos = std::upper_bound(claims_.begin(), claims_.end(), start,
                              [](sim::TimePoint t, const Claim& c) { return t < c.start; });
  claims_.insert(pos, Claim{start, end, owner});
}

void RadioScheduler::drop_train(const ClaimTrain* train) {
  const auto it = std::find_if(trains_.begin(), trains_.end(),
                               [train](const TrainRef& t) { return t.train == train; });
  assert(it != trains_.end());
  *it = trains_.back();
  trains_.pop_back();
}

void RadioScheduler::release(std::uint64_t owner) {
  std::erase_if(claims_, [owner](const Claim& c) { return c.owner == owner; });
}

void RadioScheduler::prune_before(sim::TimePoint t) {
  std::erase_if(claims_, [t](const Claim& c) { return c.end < t; });
}

bool RadioScheduler::holds(std::uint64_t owner, sim::TimePoint at) {
  for (const TrainRef& t : trains_) {
    if (t.train->owner != owner) continue;
    t.train->conn->catch_up();
    const sim::Duration ww = widening_of(*t.train, t.widened, 0).hi;
    if (overlaps(t.train->first, t.train->slot, ww, at, at + sim::Duration::ns(1))) return true;
  }
  return std::any_of(claims_.begin(), claims_.end(), [owner, at](const Claim& c) {
    return c.owner == owner && c.start <= at && at < c.end;
  });
}

sim::TimePoint RadioScheduler::next_start_after(sim::TimePoint t,
                                                std::uint64_t exclude_owner) {
  sim::TimePoint best = never();
  for (const Claim& c : claims_) {  // sorted by start
    if (c.start > t && c.owner != exclude_owner) {
      best = c.start;
      break;
    }
  }
  for (const TrainRef& r : trains_) {
    const ClaimTrain& train = *r.train;
    if (train.owner == exclude_owner) continue;
    std::uint32_t held = train.conn->train_held();
    Widening ww = widening_of(train, r.widened, held);
    // The held window starts between a - ww.hi and a - ww.lo.
    if (anchor_of(train, held) - ww.lo <= t || anchor_of(train, held) - ww.hi >= best) {
      continue;
    }
    if (ww.lo != ww.hi) {
      train.conn->catch_up();  // the start depends on draws not made yet
      held = 0;
      ww = widening_of(train, r.widened, held);
    }
    const sim::TimePoint start = anchor_of(train, held) - ww.lo;
    if (start > t && start < best) best = start;
  }
  return best;
}

bool RadioScheduler::is_free(sim::TimePoint start, sim::TimePoint end,
                             std::uint64_t owner) {
  return !table_overlaps(start, end, owner) &&
         (trains_.empty() || !trains_overlap(start, end, owner));
}

}  // namespace mgap::ble
