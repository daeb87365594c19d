#include "testbed/config_file.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace mgap::testbed {

namespace {

[[noreturn]] void bad(std::string_view key) {
  throw std::runtime_error{"config: bad " + std::string(key)};
}

[[noreturn]] void out_of_range(std::string_view key, const std::string& range) {
  throw std::runtime_error{"config: " + std::string(key) + " " + range};
}

/// Shortest decimal form that parses back to the same double (std::to_chars).
std::string shortest(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

bool parse_bool(std::string_view v, std::string_view key) {
  if (v == "true" || v == "yes" || v == "1") return true;
  if (v == "false" || v == "no" || v == "0") return false;
  throw std::runtime_error{"config: bad boolean for '" + std::string(key) + "'"};
}

/// Strictly parses an integer in [lo, hi]; throws "config: bad <key>"
/// deterministically on anything else (signs, fractions, exponents, garbage).
std::uint64_t parse_uint_in(std::string_view v, std::string_view key, std::uint64_t lo,
                            std::uint64_t hi) {
  std::uint64_t u{};
  const auto* end = v.data() + v.size();
  const auto res = std::from_chars(v.data(), end, u);
  if (res.ec != std::errc{} || res.ptr != end) bad(key);
  if (u >= lo && u <= hi) return u;
  out_of_range(key,
               "out of range [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

/// Accepted range of a real-valued key; `open_lo` excludes `lo` itself.
struct Bounds {
  double lo;
  double hi;
  bool open_lo;
};
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Bounds kAnyReal{-kInf, kInf, false};
constexpr Bounds kNonNegative{0.0, kInf, false};
constexpr Bounds kPositive{0.0, kInf, true};
constexpr Bounds kUnit{0.0, 1.0, false};

/// Parses a finite double within `b`; throws "config: bad <key>" on garbage,
/// NaN or infinity, and names the range otherwise.
double parse_real_in(std::string_view v, std::string_view key, Bounds b) {
  double d{};
  const auto* end = v.data() + v.size();
  const auto res = std::from_chars(v.data(), end, d);
  if (res.ec != std::errc{} || res.ptr != end || !std::isfinite(d)) bad(key);
  if ((b.open_lo ? d > b.lo : d >= b.lo) && d <= b.hi) return d;
  const std::string lo = shortest(b.lo);
  if (b.hi == kInf) out_of_range(key, (b.open_lo ? "must be > " : "must be >= ") + lo);
  out_of_range(key, "out of range " + std::string{b.open_lo ? "(" : "["} + lo + ", " +
                        shortest(b.hi) + "]");
}

constexpr sim::Duration kForever =
    sim::Duration::ns(std::numeric_limits<std::int64_t>::max());

/// Parses a duration in [lo, hi]; negative or malformed values are "bad".
sim::Duration parse_duration_in(std::string_view v, std::string_view key,
                                sim::Duration lo, sim::Duration hi) {
  sim::DurationError why{};
  const auto d = sim::parse_duration(v, &why);
  if (!d && why == sim::DurationError::kOutOfRange) {
    out_of_range(key, "exceeds the int64 nanosecond range");
  }
  if (!d || d->is_negative()) bad(key);
  if (*d >= lo && *d <= hi) return *d;
  if (hi == kForever) out_of_range(key, "must be >= " + lo.str());
  out_of_range(key, "out of range [" + lo.str() + ", " + hi.str() + "]");
}

/// "65:85ms" or "65ms:85ms" -> randomized policy; plain duration -> fixed.
core::IntervalPolicy parse_policy(std::string_view v) {
  const auto colon = v.find(':');
  if (colon == std::string_view::npos) {
    const auto d = sim::parse_duration(v);
    if (!d) throw std::runtime_error{"config: bad conn_interval"};
    return core::IntervalPolicy::fixed(*d);
  }
  const std::string_view hi_s = trim(v.substr(colon + 1));
  const auto hi = sim::parse_duration(hi_s);
  if (!hi) throw std::runtime_error{"config: bad conn_interval window"};
  // Shorthand "65:85ms": a bare lower bound takes the upper bound's unit.
  std::string lo_s{trim(v.substr(0, colon))};
  if (lo_s.find_first_not_of("0123456789.") == std::string::npos) {
    lo_s += hi_s.substr(hi_s.find_first_not_of("0123456789."));
  }
  const auto lo = sim::parse_duration(lo_s);
  if (!lo || *hi < *lo) throw std::runtime_error{"config: bad conn_interval window"};
  return core::IntervalPolicy::randomized(*lo, *hi);
}

Topology parse_topology(std::string_view v, std::string_view key) {
  if (v == "tree15" || v == "tree") return Topology::tree15();
  if (v == "line15" || v == "line") return Topology::line15();
  if (v.starts_with("star")) {
    const auto nodes = parse_uint_in(v.substr(4), key, 2, 100'000);
    return Topology::star(static_cast<unsigned>(nodes));
  }
  throw std::runtime_error{"config: unknown " + std::string(key) + " '" + std::string(v) +
                           "'"};
}

/// flow.preset macro: switches whole tiers of the overload-survival stack on.
/// Overwrites the individual flow.*/cc.* knobs it covers; keys sorting after
/// "flow.preset" still win (config maps apply in alphabetical order).
void apply_flow_preset(ExperimentConfig& cfg, std::string_view, std::string_view value) {
  const bool link = value == "link" || value == "all";
  const bool netif = value == "netif" || value == "all";
  const bool app = value == "app" || value == "all";
  if (!link && !netif && !app && value != "off") {
    throw std::runtime_error{"config: unknown flow.preset '" + std::string(value) +
                             "' (off|link|netif|app|all)"};
  }
  cfg.l2cap_deferred_credits = link;
  cfg.flow.txq_frames = netif ? 16 : 0;
  cfg.flow.backoff = netif;
  cfg.flow.breaker = netif;
  cfg.cc.mode =
      app ? app::CoapCcConfig::Mode::kCocoa : app::CoapCcConfig::Mode::kFixedRto;
  // NSTART 16 rather than the RFC 7252 default of 1: multi-hop BLE RTT is
  // connection-interval bound (~200 ms over three hops at 75 ms), so a
  // single outstanding exchange caps goodput far below link capacity. The
  // preset picks a window that fills the latency-bandwidth product; set
  // cc.nstart explicitly to override.
  cfg.cc.nstart = app ? 16 : 0;
}

void line(std::string& out, std::string_view key, std::string_view value) {
  out.append(key).append(" = ").append(value).append("\n");
}

const ExperimentConfig& defaults() {
  static const ExperimentConfig config;
  return config;
}

// --- the key table ----------------------------------------------------------

/// One config key: `parse` applies a value (given the key as written, which
/// matters for prefix families); `render` appends the key's line(s) for a
/// config, and is null for a key that never has a line of its own.
struct Key {
  std::string_view name;  // a trailing '.' makes it a prefix family
  std::function<void(ExperimentConfig&, std::string_view key, std::string_view v)> parse;
  std::function<void(const ExperimentConfig&, std::string_view key, std::string&)> render;
};

/// When a field row renders: always when the predicate holds, and otherwise
/// only when its value is off the ExperimentConfig default.
using Show = bool (*)(const ExperimentConfig&);
constexpr Show kAlways = [](const ExperimentConfig&) { return true; };
constexpr Show kOffDefault = [](const ExperimentConfig&) { return false; };

/// Field accessor for the row makers (const and non-const configs).
#define FIELD(path) [](auto& c) -> auto& { return c.path; }

template <typename Get>
using FieldOf =
    std::remove_cvref_t<decltype(std::declval<Get>()(std::declval<ExperimentConfig&>()))>;

/// A row over one field: `parse(value, key)` converts, `format` renders.
template <typename Get, typename Parse, typename Format>
Key field(std::string_view name, Get get, Parse parse, Format format, Show show) {
  return {name,
          [=](ExperimentConfig& c, std::string_view key, std::string_view v) {
            get(c) = parse(v, key);
          },
          [=](const ExperimentConfig& c, std::string_view key, std::string& out) {
            if (show(c) || get(c) != get(defaults())) line(out, key, format(get(c)));
          }};
}

/// Wraps a value parser so its errors read "config: <key>: <what>".
template <typename Parse>
auto prefixed(Parse parse) {
  return [parse](std::string_view v, std::string_view key) {
    try {
      return parse(v);
    } catch (const std::exception& e) {
      throw std::runtime_error{"config: " + std::string(key) + ": " + e.what()};
    }
  };
}

std::string render_duration(sim::Duration d) { return d.str(); }

template <typename Get>
Key flag(std::string_view name, Get get, Show show) {
  return field(name, get, parse_bool, [](bool b) { return b ? "true" : "false"; }, show);
}

template <typename Get>
Key integer(std::string_view name, Get get, std::uint64_t lo, std::uint64_t hi,
            Show show) {
  using T = FieldOf<Get>;
  const auto parse = [lo, hi](std::string_view v, std::string_view key) {
    return static_cast<T>(parse_uint_in(v, key, lo, hi));
  };
  return field(name, get, parse, [](T n) { return std::to_string(n); }, show);
}

template <typename Get>
Key real(std::string_view name, Get get, Bounds bounds, Show show) {
  const auto parse = [bounds](std::string_view v, std::string_view key) {
    return parse_real_in(v, key, bounds);
  };
  return field(name, get, parse, shortest, show);
}

template <typename Get>
Key duration(std::string_view name, Get get, Show show, sim::Duration lo = {},
             sim::Duration hi = kForever) {
  const auto parse = [lo, hi](std::string_view v, std::string_view key) {
    return parse_duration_in(v, key, lo, hi);
  };
  return field(name, get, parse, render_duration, show);
}

/// Enumerated values; renders the first name mapped to the current value.
template <typename Get>
Key choice(std::string_view name, Get get,
           std::initializer_list<std::pair<std::string_view, FieldOf<Get>>> names,
           Show show) {
  using Entry = std::pair<std::string_view, FieldOf<Get>>;
  const std::vector<Entry> table(names);
  const auto parse = [table](std::string_view v, std::string_view key) {
    std::string all;
    for (const auto& [n, value] : table) {
      if (n == v) return value;
      all.append(all.empty() ? "" : "|").append(n);
    }
    throw std::runtime_error{"config: unknown " + std::string(key) + " '" +
                             std::string(v) + "' (" + all + ")"};
  };
  const auto format = [table](FieldOf<Get> value) {
    return std::ranges::find(table, value, &Entry::second)->first;
  };
  return field(name, get, parse, format, show);
}

/// Output paths: "none"/"off" clears the sink so a campaign axis can disable it.
template <typename Get>
Key path(std::string_view name, Get get) {
  const auto parse = [](std::string_view v, std::string_view) {
    return v == "none" || v == "off" ? std::string{} : std::string(v);
  };
  return field(name, get, parse, [](const std::string& p) { return p; }, kOffDefault);
}

constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// Every experiment-config key, in render order. Parse order is independent
/// (alphabetical, see parse_experiment_config).
std::span<const Key> keys() {
  using Gen = topo::Generator;
  using Radio = ExperimentConfig::Radio;
  using sim::Duration;
  static const Key table[] = {
      // The two original radios keep their legacy line (byte-stable renders);
      // the newer backends use the superset key.
      {"radio",
       [](ExperimentConfig& c, std::string_view, std::string_view v) {
         if (v == "ble") c.radio = Radio::kBle;
         else if (v == "802154" || v == "ieee802154") c.radio = Radio::kIeee802154;
         else throw std::runtime_error{"config: unknown radio '" + std::string(v) + "'"};
       },
       [](const ExperimentConfig& c, std::string_view name, std::string& out) {
         if (c.radio == Radio::kBle) line(out, name, "ble");
         if (c.radio == Radio::kIeee802154) line(out, name, "ieee802154");
       }},
      {"link.backend",
       [](ExperimentConfig& c, std::string_view, std::string_view v) {
         c.radio = core::parse_link_backend_kind(std::string(v));
       },
       [](const ExperimentConfig& c, std::string_view name, std::string& out) {
         if (c.radio == Radio::kBle || c.radio == Radio::kIeee802154) return;
         line(out, name, core::to_string(c.radio));
       }},
      // Generated worlds: the topo.* spec is the source of truth; a static
      // "topology =" line would conflict with (and be overridden by) it.
      {"topology",
       [](ExperimentConfig& c, std::string_view key, std::string_view v) {
         c.topology = parse_topology(v, key);
       },
       [](const ExperimentConfig& c, std::string_view name, std::string& out) {
         if (c.topo.enabled()) return;
         const Topology& t = c.topology;
         line(out, name, t.name + std::to_string(t.name == "star" ? t.nodes.size() : 15));
       }},
      choice("topo.generator", FIELD(topo.generator),
             {{"none", Gen::kNone},
              {"off", Gen::kNone},
              {"grid", Gen::kGrid},
              {"jitter_grid", Gen::kJitterGrid},
              {"rgg", Gen::kRgg},
              {"floorplan", Gen::kFloorplan}},
             kOffDefault),
      integer("topo.nodes", FIELD(topo.nodes), 1, kMaxU32, kAlways),
      real("topo.area", FIELD(topo.area), kNonNegative, kOffDefault),
      real("topo.density", FIELD(topo.density), kPositive,
           [](const ExperimentConfig& c) { return c.topo.area == 0.0; }),
      real("topo.range", FIELD(topo.range), kPositive, kAlways),
      integer("topo.max_degree", FIELD(topo.max_degree), 0, kMaxU32, kOffDefault),
      real("topo.grid_jitter", FIELD(topo.grid_jitter), kUnit,
           [](const ExperimentConfig& c) {
             return c.topo.generator == Gen::kJitterGrid;
           }),
      {"topo.rooms",  // "4x3" -> rooms_x = 4, rooms_y = 3
       [](ExperimentConfig& c, std::string_view key, std::string_view v) {
         const auto x = v.find('x');
         if (x == std::string_view::npos) {
           throw std::runtime_error{"config: " + std::string(key) +
                                    " wants WxH, e.g. 4x3"};
         }
         const auto side = [&](std::string_view n) {
           return static_cast<unsigned>(parse_uint_in(n, key, 1, kMaxU32));
         };
         c.topo.rooms_x = side(v.substr(0, x));
         c.topo.rooms_y = side(v.substr(x + 1));
       },
       [](const ExperimentConfig& c, std::string_view name, std::string& out) {
         const topo::TopoSpec& t = c.topo;
         if (t.rooms_x == 0) return;
         line(out, name, std::to_string(t.rooms_x) + "x" + std::to_string(t.rooms_y));
       }},
      real("topo.wall_loss_db", FIELD(topo.wall_loss_db), kNonNegative,
           [](const ExperimentConfig& c) { return c.topo.generator == Gen::kFloorplan; }),
      real("topo.tx_power_dbm", FIELD(topo.tx_power_dbm), kAnyReal, kOffDefault),
      real("topo.path_loss_exp", FIELD(topo.path_loss_exp), kPositive, kOffDefault),
      real("topo.sensitivity_dbm", FIELD(topo.sensitivity_dbm), kAnyReal, kOffDefault),
      real("topo.fade_margin_db", FIELD(topo.fade_margin_db), kPositive, kOffDefault),
      integer("topo.seed", FIELD(topo.seed), 0, kMaxU64, kOffDefault),

      duration("duration", FIELD(duration), kAlways),
      duration("producer_interval", FIELD(producer_interval), kAlways),
      duration("producer_jitter", FIELD(producer_jitter), kAlways),
      {"conn_interval",
       [](ExperimentConfig& c, std::string_view, std::string_view v) {
         c.policy = parse_policy(v);
       },
       [](const ExperimentConfig& c, std::string_view name, std::string& out) {
         const core::IntervalPolicy& p = c.policy;
         line(out, name,
              p.is_randomized() ? p.lo().str() + ":" + p.hi().str() : p.target().str());
       }},
      duration("supervision_timeout", FIELD(supervision_timeout), kAlways),
      integer("payload_len", FIELD(payload_len), 0, 65535, kAlways),
      integer("seed", FIELD(seed), 0, kMaxU64, kAlways),
      real("base_per", FIELD(base_per), kUnit, kAlways),
      real("drift_ppm_range", FIELD(drift_ppm_range), kNonNegative, kAlways),
      flag("jam_channel_22", FIELD(jam_channel_22), kAlways),
      flag("exclude_channel_22", FIELD(exclude_channel_22), kAlways),
      flag("adaptive_channel_map", FIELD(adaptive_channel_map), kAlways),
      flag("confirmable_coap", FIELD(confirmable_coap), kAlways),
      flag("param_update_mitigation", FIELD(param_update_mitigation), kAlways),
      // Default-on: only the A/B control (arena = false) is worth a line.
      flag("arena", FIELD(arena), kOffDefault),
      choice("compression", FIELD(compression),
             {{"uncompressed", net::CompressionMode::kUncompressed},
              {"iphc", net::CompressionMode::kIphc}},
             kAlways),
      // The report prints bucket widths in whole seconds; 0 would divide by 0.
      duration("metrics_bucket", FIELD(metrics_bucket), kAlways, Duration::sec(1)),
      {"fault.",
       [](ExperimentConfig& c, std::string_view key, std::string_view v) {
         // "none"/"off" clears the slot so a campaign axis can sweep a fault away.
         if (v == "none" || v == "off") c.faults.erase(std::string(key));
         else c.faults[std::string(key)] = prefixed(fault::parse_fault_event)(v, key);
       },
       [](const ExperimentConfig& c, std::string_view, std::string& out) {
         for (const auto& [key, ev] : c.faults) line(out, key, ev.str());
       }},
      real("chaos_rate", FIELD(chaos.rate_per_min), kNonNegative, kOffDefault),
      {"chaos_kinds",
       [](ExperimentConfig& c, std::string_view key, std::string_view v) {
         c.chaos.kinds = prefixed(fault::parse_kind_list)(v, key);
       },
       [](const ExperimentConfig& c, std::string_view name, std::string& out) {
         if (!c.chaos.enabled() || c.chaos.kinds.empty()) return;
         line(out, name, fault::render_kind_list(c.chaos.kinds));
       }},
      duration("reconnect_backoff_base", FIELD(reconnect_backoff_base), kAlways),
      duration("reconnect_backoff_max", FIELD(reconnect_backoff_max), kAlways),
      duration("reconnect_backoff_jitter", FIELD(reconnect_backoff_jitter), kAlways),

      // Flow-control, mesh, energy and trace knobs render only off their
      // defaults, keeping legacy configs byte-stable. The preset is a macro:
      // it renders through the keys it sets.
      {"flow.preset", apply_flow_preset, nullptr},
      choice("flow.l2cap_credits", FIELD(l2cap_deferred_credits),
             {{"immediate", false}, {"deferred", true}}, kOffDefault),
      integer("flow.initial_credits", FIELD(l2cap_initial_credits), 1, 65535,
              kOffDefault),
      integer("flow.credit_batch", FIELD(l2cap_credit_batch), 1, 65535, kOffDefault),
      integer("flow.txq_frames", FIELD(flow.txq_frames), 0, 1 << 20, kOffDefault),
      flag("flow.backoff", FIELD(flow.backoff), kOffDefault),
      duration("flow.backoff_base", FIELD(flow.backoff_base), kOffDefault),
      duration("flow.backoff_max", FIELD(flow.backoff_max), kOffDefault),
      duration("flow.backoff_jitter", FIELD(flow.backoff_jitter), kOffDefault),
      flag("flow.breaker", FIELD(flow.breaker), kOffDefault),
      integer("flow.breaker_threshold", FIELD(flow.breaker_threshold), 1, 1 << 20,
              kOffDefault),
      duration("flow.breaker_open", FIELD(flow.breaker_open), kOffDefault),
      integer("flow.breaker_probes", FIELD(flow.breaker_probes), 1, 1 << 20, kOffDefault),
      integer("flow.congest_on_pct", FIELD(flow.congest_on_pct), 1, 100, kOffDefault),
      integer("flow.congest_off_pct", FIELD(flow.congest_off_pct), 0, 100, kOffDefault),
      choice("cc.mode", FIELD(cc.mode),
             {{"fixed", app::CoapCcConfig::Mode::kFixedRto},
              {"cocoa", app::CoapCcConfig::Mode::kCocoa}},
             kOffDefault),
      integer("cc.nstart", FIELD(cc.nstart), 0, 1 << 16, kOffDefault),
      integer("mesh.ttl", FIELD(mesh.ttl), 1, 127, kOffDefault),
      real("mesh.relay_density", FIELD(mesh.relay_density), kUnit, kOffDefault),
      integer("mesh.cache_entries", FIELD(mesh.cache_entries), 4, 65536, kOffDefault),
      integer("mesh.transmit_count", FIELD(mesh.transmit_count), 1, 8, kOffDefault),
      duration("mesh.adv_interval", FIELD(mesh.adv_interval), kOffDefault,
               Duration::ms(5), Duration::sec(10)),
      // 0 (or "off") disables heartbeat publication.
      field("mesh.heartbeat_period", FIELD(mesh.heartbeat_period),
            [](std::string_view v, std::string_view key) {
              if (v == "off" || v == "0") return Duration{};
              return parse_duration_in(v, key, {}, kForever);
            },
            render_duration, kOffDefault),
      integer("mesh.queue_cap", FIELD(mesh.queue_cap), 4, 4096, kOffDefault),
      integer("mesh.reasm_entries", FIELD(mesh.reasm_entries), 1, 256, kOffDefault),
      real("mesh.scan_duty", FIELD(mesh.scan_duty), {0.0, 1.0, true}, kOffDefault),
      flag("energy.account", FIELD(energy_account), kOffDefault),
      path("trace.file", FIELD(trace_file)),
      path("trace.pcap", FIELD(trace_pcap)),
      field("trace.categories", FIELD(trace_categories),
            prefixed(sim::parse_trace_cat_mask), sim::render_trace_cat_mask, kOffDefault),
  };
  return table;
}

#undef FIELD

}  // namespace

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

void apply_experiment_kv(ExperimentConfig& cfg, std::string_view key,
                         std::string_view value) {
  for (const Key& k : keys()) {
    if (k.name.ends_with('.') ? key.starts_with(k.name) : key == k.name) {
      k.parse(cfg, key, value);
      return;
    }
  }
  throw std::runtime_error{"config: unknown key '" + std::string(key) + "'"};
}

void read_config_lines(
    std::string_view text, std::string_view what,
    const std::function<void(std::size_t, std::string_view, std::string_view)>& on_kv) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    std::string_view line = text.substr(pos, nl == std::string_view::npos
                                                 ? std::string_view::npos
                                                 : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    const auto hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw std::runtime_error{std::string(what) + " line " + std::to_string(line_no) +
                               ": expected key = value"};
    }
    on_kv(line_no, trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
}

ExperimentConfig parse_experiment_config(std::string_view text) {
  std::map<std::string, std::string> kv;
  read_config_lines(text, "config",
                    [&kv](std::size_t, std::string_view key, std::string_view value) {
                      kv[std::string(key)] = std::string(value);
                    });

  ExperimentConfig cfg;
  for (const auto& [key, value] : kv) apply_experiment_kv(cfg, key, value);
  if (cfg.flow.congest_off_pct > cfg.flow.congest_on_pct) {
    throw std::runtime_error{
        "config: flow.congest_off_pct must not exceed flow.congest_on_pct"};
  }
  if (cfg.flow.backoff_base > cfg.flow.backoff_max) {
    throw std::runtime_error{
        "config: flow.backoff_base must not exceed flow.backoff_max"};
  }
  if (cfg.topo.enabled()) {
    try {
      cfg.topo.validate();
    } catch (const std::exception& e) {
      throw std::runtime_error{"config: " + std::string(e.what())};
    }
  }
  return cfg;
}

ExperimentConfig load_experiment_config(const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"config: cannot open " + path};
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_experiment_config(buf.str());
}

std::string render_experiment_config(const ExperimentConfig& config) {
  std::string out;
  for (const Key& k : keys()) {
    // Without a generator the topo.* spec is inert and stays unrendered.
    if (!k.render || (!config.topo.enabled() && k.name.starts_with("topo."))) continue;
    k.render(config, k.name, out);
  }
  return out;
}

std::vector<std::string_view> experiment_config_keys() {
  std::vector<std::string_view> names;
  for (const Key& k : keys()) names.push_back(k.name);
  return names;
}

}  // namespace mgap::testbed
