#include "fault/spec.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace mgap::fault {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error{"fault: " + what};
}

/// Shortest decimal form that parses back to the same double, so a rendered
/// fault line reproduces its run.
std::string shortest(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::optional<double> parse_number(std::string_view s) {
  double v{};
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return v;
}

/// Splits "A-B" into two numbers; used for link=2-5 and channels=10-14.
std::optional<std::pair<std::int64_t, std::int64_t>> parse_range(std::string_view s) {
  const auto dash = s.find('-');
  if (dash == std::string_view::npos) return std::nullopt;
  const auto a = parse_number(s.substr(0, dash));
  const auto b = parse_number(s.substr(dash + 1));
  if (!a || !b) return std::nullopt;
  return std::make_pair(static_cast<std::int64_t>(*a), static_cast<std::int64_t>(*b));
}

struct KvList {
  std::vector<std::pair<std::string_view, std::string_view>> items;

  [[nodiscard]] std::optional<std::string_view> get(std::string_view key) const {
    for (const auto& [k, v] : items) {
      if (k == key) return v;
    }
    return std::nullopt;
  }

  [[nodiscard]] std::string_view require(std::string_view key,
                                         std::string_view kind) const {
    const auto v = get(key);
    if (!v) fail(std::string(kind) + " needs " + std::string(key) + "=");
    return *v;
  }
};

sim::Duration require_duration(const KvList& kv, std::string_view key,
                               std::string_view kind) {
  const auto d = sim::parse_duration(kv.require(key, kind));
  if (!d) fail("bad duration for " + std::string(key) + "=");
  return *d;
}

NodeId require_node(const KvList& kv, std::string_view kind) {
  const auto n = parse_number(kv.require("node", kind));
  if (!n || *n < 1) fail("bad node=");
  return static_cast<NodeId>(*n);
}

}  // namespace

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kAttenuate: return "attenuate";
    case FaultKind::kInterfere: return "interfere";
    case FaultKind::kClockDrift: return "clock_drift";
    case FaultKind::kClockStep: return "clock_step";
    case FaultKind::kPressure: return "pressure";
  }
  return "?";
}

std::optional<FaultKind> kind_from_string(std::string_view name) {
  if (name == "crash") return FaultKind::kCrash;
  if (name == "blackout") return FaultKind::kBlackout;
  if (name == "attenuate") return FaultKind::kAttenuate;
  if (name == "interfere") return FaultKind::kInterfere;
  if (name == "clock_drift") return FaultKind::kClockDrift;
  if (name == "clock_step") return FaultKind::kClockStep;
  if (name == "pressure") return FaultKind::kPressure;
  return std::nullopt;
}

std::string FaultEvent::str() const {
  std::ostringstream out;
  out << to_string(kind);
  switch (kind) {
    case FaultKind::kCrash:
      out << " node=" << node << " at=" << at.since_origin().str();
      if (!duration.is_zero()) out << " reboot_after=" << duration.str();
      break;
    case FaultKind::kBlackout:
      out << " link=" << node << "-" << peer << " at=" << at.since_origin().str()
          << " for=" << duration.str();
      break;
    case FaultKind::kAttenuate:
      out << " link=" << node << "-" << peer << " at=" << at.since_origin().str()
          << " for=" << duration.str() << " per=" << shortest(per);
      break;
    case FaultKind::kInterfere:
      out << " channels=" << static_cast<int>(chan_lo) << "-"
          << static_cast<int>(chan_hi) << " at=" << at.since_origin().str()
          << " for=" << duration.str() << " per=" << shortest(per);
      if (radius > 0.0) out << " node=" << node << " radius=" << shortest(radius);
      break;
    case FaultKind::kClockDrift:
      out << " node=" << node << " at=" << at.since_origin().str() << " ppm=" << shortest(ppm);
      if (!duration.is_zero()) out << " for=" << duration.str();
      break;
    case FaultKind::kClockStep:
      out << " node=" << node << " at=" << at.since_origin().str()
          << " step=" << step.str();
      break;
    case FaultKind::kPressure:
      out << " node=" << node << " at=" << at.since_origin().str()
          << " for=" << duration.str() << " bytes=" << bytes;
      if (radius > 0.0) out << " radius=" << shortest(radius);
      break;
  }
  return out.str();
}

FaultEvent parse_fault_event(std::string_view text) {
  // Tokenize on whitespace: first token is the kind, the rest key=value.
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < text.size()) {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    std::size_t end = pos;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    if (end > pos) tokens.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  if (tokens.empty()) fail("empty fault spec");

  const auto kind = kind_from_string(tokens.front());
  if (!kind) fail("unknown fault kind '" + std::string(tokens.front()) + "'");

  KvList kv;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string_view::npos || eq == 0) {
      fail("expected key=value, got '" + std::string(tokens[i]) + "'");
    }
    kv.items.emplace_back(tokens[i].substr(0, eq), tokens[i].substr(eq + 1));
  }

  auto check_keys = [&kv](std::initializer_list<std::string_view> allowed) {
    for (const auto& [k, v] : kv.items) {
      if (std::find(allowed.begin(), allowed.end(), k) == allowed.end()) {
        fail("unknown key '" + std::string(k) + "'");
      }
    }
  };
  switch (*kind) {
    case FaultKind::kCrash: check_keys({"node", "at", "reboot_after"}); break;
    case FaultKind::kBlackout: check_keys({"link", "at", "for"}); break;
    case FaultKind::kAttenuate: check_keys({"link", "at", "for", "per"}); break;
    case FaultKind::kInterfere:
      check_keys({"channels", "at", "for", "per", "node", "radius"});
      break;
    case FaultKind::kClockDrift: check_keys({"node", "at", "ppm", "for"}); break;
    case FaultKind::kClockStep: check_keys({"node", "at", "step"}); break;
    case FaultKind::kPressure:
      check_keys({"node", "at", "for", "bytes", "radius"});
      break;
  }

  FaultEvent ev;
  ev.kind = *kind;
  ev.at = sim::TimePoint::origin() + require_duration(kv, "at", to_string(*kind));

  auto parse_link = [&kv, kind, &ev] {
    const auto range = parse_range(kv.require("link", to_string(*kind)));
    if (!range || range->first < 1 || range->second < 1 ||
        range->first == range->second) {
      fail("bad link= (want link=A-B with distinct node ids)");
    }
    ev.node = static_cast<NodeId>(range->first);
    ev.peer = static_cast<NodeId>(range->second);
  };
  auto parse_per = [&kv, &ev](bool required, double fallback) {
    const auto v = kv.get("per");
    if (!v) {
      if (required) fail("needs per=");
      ev.per = fallback;
      return;
    }
    const auto p = parse_number(*v);
    if (!p || *p < 0.0 || *p > 1.0) fail("bad per= (want a value in [0,1])");
    ev.per = *p;
  };

  switch (*kind) {
    case FaultKind::kCrash: {
      ev.node = require_node(kv, "crash");
      if (const auto v = kv.get("reboot_after")) {
        const auto d = sim::parse_duration(*v);
        if (!d || d->is_negative()) fail("bad reboot_after=");
        ev.duration = *d;
      }
      break;
    }
    case FaultKind::kBlackout: {
      parse_link();
      ev.duration = require_duration(kv, "for", "blackout");
      ev.per = 1.0;
      break;
    }
    case FaultKind::kAttenuate: {
      parse_link();
      ev.duration = require_duration(kv, "for", "attenuate");
      parse_per(/*required=*/true, 1.0);
      break;
    }
    case FaultKind::kInterfere: {
      const auto range = parse_range(kv.require("channels", "interfere"));
      if (!range || range->first < 0 || range->second > 36 ||
          range->first > range->second) {
        fail("bad channels= (want channels=LO-HI within 0-36)");
      }
      ev.chan_lo = static_cast<std::uint8_t>(range->first);
      ev.chan_hi = static_cast<std::uint8_t>(range->second);
      ev.duration = require_duration(kv, "for", "interfere");
      parse_per(/*required=*/false, 0.9);
      // Spatial scope: radius-bounded interference centered on a node.
      if (const auto v = kv.get("radius")) {
        const auto r = parse_number(*v);
        if (!r || *r <= 0.0) fail("bad radius= (want meters > 0)");
        ev.radius = *r;
        ev.node = require_node(kv, "interfere with radius");
      } else if (kv.get("node")) {
        fail("interfere node= needs radius=");
      }
      break;
    }
    case FaultKind::kClockDrift: {
      ev.node = require_node(kv, "clock_drift");
      const auto p = parse_number(kv.require("ppm", "clock_drift"));
      if (!p) fail("bad ppm=");
      ev.ppm = *p;
      if (const auto v = kv.get("for")) {
        const auto d = sim::parse_duration(*v);
        if (!d || d->is_negative()) fail("bad for=");
        ev.duration = *d;
      }
      break;
    }
    case FaultKind::kClockStep: {
      ev.node = require_node(kv, "clock_step");
      const auto d = sim::parse_duration(kv.require("step", "clock_step"));
      if (!d) fail("bad step=");
      ev.step = *d;
      break;
    }
    case FaultKind::kPressure: {
      ev.node = require_node(kv, "pressure");
      ev.duration = require_duration(kv, "for", "pressure");
      const auto b = parse_number(kv.require("bytes", "pressure"));
      if (!b || *b < 1) fail("bad bytes=");
      ev.bytes = static_cast<std::size_t>(*b);
      if (const auto v = kv.get("radius")) {
        const auto r = parse_number(*v);
        if (!r || *r <= 0.0) fail("bad radius= (want meters > 0)");
        ev.radius = *r;
      }
      break;
    }
  }
  if (ev.at < sim::TimePoint::origin()) fail("at= must not be negative");
  return ev;
}

std::vector<FaultKind> parse_kind_list(std::string_view text) {
  std::vector<FaultKind> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto plus = text.find('+', pos);
    const std::string_view item =
        text.substr(pos, plus == std::string_view::npos ? std::string_view::npos
                                                        : plus - pos);
    if (!item.empty()) {
      const auto kind = kind_from_string(item);
      if (!kind) fail("unknown fault kind '" + std::string(item) + "'");
      out.push_back(*kind);
    }
    if (plus == std::string_view::npos) break;
    pos = plus + 1;
  }
  return out;
}

std::string render_kind_list(const std::vector<FaultKind>& kinds) {
  std::string out;
  for (const FaultKind k : kinds) {
    if (!out.empty()) out += '+';
    out += to_string(k);
  }
  return out;
}

std::vector<FaultEvent> sample_chaos(const ChaosConfig& cfg,
                                     const std::vector<NodeId>& nodes,
                                     const std::vector<std::pair<NodeId, NodeId>>& edges,
                                     sim::Duration horizon, sim::Rng& rng) {
  std::vector<FaultEvent> out;
  if (!cfg.enabled() || nodes.empty()) return out;

  static constexpr FaultKind kAll[] = {
      FaultKind::kCrash,     FaultKind::kBlackout,  FaultKind::kAttenuate,
      FaultKind::kInterfere, FaultKind::kClockDrift, FaultKind::kClockStep,
      FaultKind::kPressure};
  std::vector<FaultKind> kinds = cfg.kinds;
  if (kinds.empty()) kinds.assign(std::begin(kAll), std::end(kAll));
  // Link faults are impossible without edges.
  if (edges.empty()) {
    kinds.erase(std::remove_if(kinds.begin(), kinds.end(),
                               [](FaultKind k) {
                                 return k == FaultKind::kBlackout ||
                                        k == FaultKind::kAttenuate;
                               }),
                kinds.end());
    if (kinds.empty()) return out;
  }

  const sim::TimePoint window_start = sim::TimePoint::origin() + horizon / 10;
  const sim::TimePoint window_end = sim::TimePoint::origin() + (horizon / 10) * 9;
  const double mean_gap_s = 60.0 / cfg.rate_per_min;

  auto pick_node = [&] {
    return nodes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
  };

  sim::TimePoint t = window_start;
  while (true) {
    t += sim::Duration::sec_f(rng.exponential(mean_gap_s));
    if (t >= window_end) break;

    FaultEvent ev;
    ev.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kinds.size()) - 1))];
    ev.at = t;
    switch (ev.kind) {
      case FaultKind::kCrash:
        ev.node = pick_node();
        ev.duration = rng.uniform_duration(sim::Duration::sec(2), sim::Duration::sec(10));
        break;
      case FaultKind::kBlackout:
      case FaultKind::kAttenuate: {
        const auto& edge = edges[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(edges.size()) - 1))];
        ev.node = edge.first;
        ev.peer = edge.second;
        ev.duration = rng.uniform_duration(sim::Duration::sec(1), sim::Duration::sec(5));
        ev.per = ev.kind == FaultKind::kBlackout ? 1.0 : rng.uniform_real(0.3, 0.9);
        break;
      }
      case FaultKind::kInterfere: {
        const auto lo = rng.uniform_int(0, 32);
        ev.chan_lo = static_cast<std::uint8_t>(lo);
        ev.chan_hi = static_cast<std::uint8_t>(
            std::min<std::int64_t>(36, lo + rng.uniform_int(1, 4)));
        ev.duration = rng.uniform_duration(sim::Duration::sec(2), sim::Duration::sec(10));
        ev.per = rng.uniform_real(0.6, 1.0);
        break;
      }
      case FaultKind::kClockDrift:
        ev.node = pick_node();
        ev.ppm = rng.uniform_real(-150.0, 150.0);
        ev.duration = rng.uniform_duration(sim::Duration::sec(10), sim::Duration::sec(60));
        break;
      case FaultKind::kClockStep:
        ev.node = pick_node();
        ev.step = rng.uniform_duration(sim::Duration::ms(5), sim::Duration::ms(50));
        break;
      case FaultKind::kPressure:
        ev.node = pick_node();
        ev.bytes = static_cast<std::size_t>(rng.uniform_int(2048, 6144));
        ev.duration = rng.uniform_duration(sim::Duration::sec(5), sim::Duration::sec(15));
        break;
    }
    out.push_back(ev);
  }
  return out;
}

}  // namespace mgap::fault
