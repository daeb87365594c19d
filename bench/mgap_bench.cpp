// mgap_bench — machine-readable performance regression harness.
//
//   mgap_bench [--out DIR] [--quick] [event_queue] [campaign] [scale]
//              [overload] [mesh]
//
// Emits BENCH_event_queue.json, BENCH_campaign.json, BENCH_scale.json,
// BENCH_overload.json, and BENCH_mesh.json (all by default).
// The event-queue suite drives the simulator-core hot path at 10k/30k/100k
// live events, every case repeated and reported as median/min/max ns/op:
// near-constant ns/op across sizes is the contract — the
// pre-slot-map implementation erased from the front of a sorted vector on
// every pop/cancel, so its ns/op grew linearly with the live-event count
// (quadratic total time) and a 24 h campaign spent most of its wall clock
// inside the queue. The campaign suite times a fig15-style multi-seed sweep
// end-to-end and fingerprints its JSON output (FNV-1a) so CI catches both
// wall-clock regressions and cross-build nondeterminism.
//
// The overload suite also times the CoAP server at 1k and 20k cached dedup
// entries; their ratio stays near 1 unless serving a request goes back to
// scanning the whole cache.
//
// CI compares the committed baselines against a fresh run and fails when the
// 100k-event case regresses more than 2x (medians, scaling-normalized, so a
// slower runner does not false-positive), the dedup ratio exceeds 2, or the
// campaign fingerprint moves.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "app/coap_endpoint.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "campaign/writers.hpp"
#include "mesh/world.hpp"
#include "net/ip_stack.hpp"
#include "net/ipv6.hpp"
#include "net/sixlowpan.hpp"
#include "net/udp.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "testbed/experiment.hpp"
#include "testbed/topology.hpp"
#include "topo/spec.hpp"

using namespace mgap;

namespace {

// Wall-clock intervals at the clock's native tick. Truncating these to
// milliseconds (the old %.3f formatting) zeroed out every sub-ms case and
// made sim/wall ratios for small worlds read as 0 or inf; keep the full
// nanosecond resolution all the way into the JSON.
double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
  return static_cast<double>(ns.count()) * 1e-9;
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Case {
  std::string name;
  std::size_t n;
  std::uint64_t ops;
  double seconds;
  [[nodiscard]] double ns_per_op() const {
    return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
  }
};

/// Schedule n events at uniform random times, then drain, `rounds` times
/// over — the exact workload that was quadratic before the slot-map rewrite.
/// The rounds keep even the 10k case long enough to time (one 10k round
/// lasts a few ms, where a single preemption or page fault shows).
Case bench_schedule_drain(std::size_t n, std::size_t rounds) {
  sim::Rng rng{1, 1};
  sim::EventQueue q;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule(
          sim::TimePoint::from_ns(static_cast<std::int64_t>(rng.next_u64() % 1'000'000)),
          [] {});
    }
    while (!q.empty()) q.pop();
  }
  return Case{"schedule_drain", n, static_cast<std::uint64_t>(2 * n * rounds),
              seconds_since(t0)};
}

/// n live timers, each cancelled and re-armed repeatedly — the supervision
/// timer pattern of the BLE connection-event loop.
Case bench_cancel_rearm(std::size_t n, std::size_t rounds) {
  sim::Rng rng{2, 1};
  sim::EventQueue q;
  std::vector<sim::EventId> timers(n);
  for (std::size_t i = 0; i < n; ++i) {
    timers[i] = q.schedule(sim::TimePoint::from_ns(static_cast<std::int64_t>(i)), [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      q.cancel(timers[i]);
      timers[i] = q.schedule(
          sim::TimePoint::from_ns(static_cast<std::int64_t>(rng.next_u64() % 1'000'000)), [] {});
    }
  }
  const Case c{"cancel_rearm", n, static_cast<std::uint64_t>(2 * n * rounds),
               seconds_since(t0)};
  while (!q.empty()) q.pop();
  return c;
}

/// Steady state at n live events: pop one, schedule one — the DES main loop.
Case bench_steady_churn(std::size_t n, std::size_t ops) {
  sim::Rng rng{3, 1};
  sim::EventQueue q;
  for (std::size_t i = 0; i < n; ++i) {
    q.schedule(sim::TimePoint::from_ns(static_cast<std::int64_t>(rng.next_u64() % 1'000'000)),
               [] {});
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const auto fired = q.pop();
    q.schedule(fired.at + sim::Duration::us(static_cast<std::int64_t>(rng.next_u64() % 1000)),
               [] {});
  }
  const Case c{"steady_churn", n, static_cast<std::uint64_t>(2 * ops), seconds_since(t0)};
  return c;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size();
  return k % 2 == 1 ? v[k / 2] : (v[k / 2 - 1] + v[k / 2]) / 2;
}

int run_event_queue(const std::string& out_dir, bool quick) {
  const std::size_t scale = quick ? 10 : 1;
  const int reps = quick ? 3 : 7;
  const std::size_t sizes[] = {10'000, 30'000, 100'000};
  // About 500k schedule/pop operations per drain case at every size.
  const auto drain_rounds = [](std::size_t n) { return std::max<std::size_t>(1, 250'000 / n); };
  // Discarded warm-up so the first measured case does not eat the cold-cache
  // cost and skew the scaling ratio.
  (void)bench_schedule_drain(sizes[0], drain_rounds(sizes[0]));
  // Each repetition runs every case once, so a slow stretch of a shared host
  // hits all sizes of that repetition alike; the scaling ratio is the median
  // of the per-repetition ratios.
  std::vector<std::vector<Case>> rounds;
  std::vector<double> ratios;
  for (int r = 0; r < reps; ++r) {
    std::vector<Case>& round = rounds.emplace_back();
    double small = 0.0;
    double large = 0.0;
    for (const std::size_t n : sizes) {
      round.push_back(bench_schedule_drain(n, drain_rounds(n)));
      if (n == sizes[0]) small = round.back().ns_per_op();
      if (n == sizes[2]) large = round.back().ns_per_op();
      round.push_back(bench_cancel_rearm(n, 20 / scale + 1));
      round.push_back(bench_steady_churn(n, 500'000 / scale));
    }
    ratios.push_back(large / small);
  }

  std::string json = "{\n  \"bench\": \"event_queue\",\n  \"reps\": " +
                     std::to_string(reps) + ",\n  \"cases\": [\n";
  const std::size_t count = rounds.front().size();
  for (std::size_t i = 0; i < count; ++i) {
    const Case& c = rounds.front()[i];
    std::vector<double> ns;
    for (const std::vector<Case>& round : rounds) ns.push_back(round[i].ns_per_op());
    char line[224];
    std::snprintf(line, sizeof line,
                  "    {\"name\": \"%s\", \"n\": %zu, \"ops\": %" PRIu64
                  ", \"ns_per_op\": %.1f, \"ns_per_op_min\": %.1f, \"ns_per_op_max\": %.1f}%s\n",
                  c.name.c_str(), c.n, c.ops, median(ns),
                  *std::min_element(ns.begin(), ns.end()),
                  *std::max_element(ns.begin(), ns.end()), i + 1 < count ? "," : "");
    json += line;
  }
  // The headline number: ns/op growth from 10k to 100k live events. ~1 for a
  // real heap; ~10 (linear in n) for the old sorted-vector side table.
  const double ratio = median(ratios);
  char tail[160];
  std::snprintf(tail, sizeof tail,
                "  ],\n  \"scaling_ratio_10k_to_100k\": %.2f,\n"
                "  \"scaling_ratio_min\": %.2f,\n  \"scaling_ratio_max\": %.2f\n}\n",
                ratio, *std::min_element(ratios.begin(), ratios.end()),
                *std::max_element(ratios.begin(), ratios.end()));
  json += tail;
  campaign::write_file(out_dir + "/BENCH_event_queue.json", json);
  std::printf("event_queue: schedule_drain scaling ratio 10k -> 100k median %.2f "
              "(min %.2f, max %.2f, %d reps)\n",
              ratio, *std::min_element(ratios.begin(), ratios.end()),
              *std::max_element(ratios.begin(), ratios.end()), reps);
  return 0;
}

int run_campaign(const std::string& out_dir, bool quick) {
  // A fig15-style cell grid: static vs randomized connection intervals, three
  // replication seeds, full-rate simulation (no MGAP_TIME_SCALE dependence so
  // the JSON fingerprint is reproducible everywhere).
  campaign::CampaignSpec spec;
  spec.name = "bench_campaign";
  spec.base.topology = testbed::Topology::tree15();
  spec.base.duration = sim::Duration::minutes(quick ? 2 : 10);
  spec.base.producer_interval = sim::Duration::sec(1);
  spec.base.producer_jitter = sim::Duration::ms(500);
  spec.seeds = {1, 2, 3};
  spec.axes.push_back({"conn_interval", {"75ms", "65:85ms"}});

  campaign::RunnerOptions options;
  options.progress = false;
  const auto t0 = std::chrono::steady_clock::now();
  const campaign::CampaignResult result = campaign::CampaignRunner{options}.run(spec);
  const double wall = seconds_since(t0);

  // Without code_version: the committed fingerprint must not move per commit.
  const std::string result_json = campaign::to_json(result, false);
  const std::uint64_t fingerprint = fnv1a(result_json);
  const double sim_seconds = static_cast<double>(result.cells.size()) *
                             static_cast<double>(spec.base.duration.count_ns()) * 1e-9;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\n"
                "  \"bench\": \"campaign\",\n"
                "  \"cells\": %zu,\n"
                "  \"sim_seconds\": %.0f,\n"
                "  \"wall_seconds\": %.9f,\n"
                "  \"sim_per_wall\": %.1f,\n"
                "  \"result_json_fnv1a\": \"%016" PRIx64 "\"\n"
                "}\n",
                result.cells.size(), sim_seconds, wall,
                wall > 0 ? sim_seconds / wall : 0.0, fingerprint);
  campaign::write_file(out_dir + "/BENCH_campaign.json", std::string{buf});
  std::printf("campaign: %zu cells, %.0f sim-s in %.2f wall-s (%.0fx real time), "
              "fingerprint %016" PRIx64 "\n",
              result.cells.size(), sim_seconds, wall,
              wall > 0 ? sim_seconds / wall : 0.0, fingerprint);
  return 0;
}

/// One scale-bench cell: summary, timing, and the BleWorld advertising-path
/// counters that prove the spatial index carried the run.
struct ScaleCell {
  testbed::ExperimentSummary s;
  double wall{0.0};
  std::uint64_t adv_events_routed{0};
  std::uint64_t adv_candidates_scanned{0};
  std::uint64_t adv_full_scans{0};
  ble::IdleRunStats idle_runs;
};

/// Why the row's idle runs ended and how its train-vs-train collisions were
/// decided (fast-forward diagnostics, outside the fingerprinted counters).
std::string idle_runs_json(const ble::IdleRunStats& r) {
  std::string out = "{";
  for (std::size_t k = 0; k < ble::kRunEndKinds; ++k) {
    out += '"';
    out += ble::to_string(static_cast<ble::RunEnd>(k));
    out += "\": " + std::to_string(r.ended[k]) + ", ";
  }
  out += "\"resolved\": " + std::to_string(r.resolved) +
         ", \"three_party\": " + std::to_string(r.three_party) +
         ", \"widening\": " + std::to_string(r.widening) +
         ", \"order\": " + std::to_string(r.order) + "}";
  return out;
}

ScaleCell run_scale_cell(unsigned n, sim::Duration duration) {
  testbed::ExperimentConfig cfg;
  cfg.topo.generator = topo::Generator::kRgg;
  cfg.topo.nodes = n;
  cfg.topo.density = 8.0;  // ~25 in-range neighbors at 10 m
  cfg.topo.range = 10.0;
  cfg.duration = duration;
  // Aggregate offered load stays under the consumer's 8-link capacity even
  // with 999 producers, so every size delivers a nonzero PDR.
  cfg.producer_interval = sim::Duration::sec(30);
  cfg.producer_jitter = sim::Duration::sec(10);
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65),
                                                sim::Duration::ms(85));
  cfg.seed = 7;

  const auto t0 = std::chrono::steady_clock::now();
  testbed::Experiment exp{std::move(cfg)};
  exp.run();
  ScaleCell cell;
  cell.wall = seconds_since(t0);
  cell.s = exp.summary();
  const ble::BleWorld& world = *exp.ble_world();
  cell.adv_events_routed = world.adv_events_routed();
  cell.adv_candidates_scanned = world.adv_candidates_scanned();
  cell.adv_full_scans = world.adv_full_scans();
  cell.idle_runs = world.idle_runs();
  return cell;
}

int run_scale(const std::string& out_dir, bool quick) {
  // The tentpole scalability bench: generated RGG worlds at constant density
  // (so the mean node degree stays put while the deployment area grows),
  // timed end-to-end. sim/wall is the headline; the adv_full_scans == 0
  // assertion is the proof that the large cases ride the spatial index's
  // neighbor tables rather than the O(N)-per-advertisement scan. The 3k and
  // 10k rows are the arena/SoA payoff: they only became runnable (minutes,
  // not hours) once per-node state was pooled and interference localized.
  const unsigned sizes[] = {15, 100, 1000, 3000, 10000};
  const sim::Duration duration = sim::Duration::sec(quick ? 30 : 60);

  int rc = 0;
  std::string fingerprint_src;
  std::string json = "{\n  \"bench\": \"scale\",\n  \"cases\": [\n";

  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const unsigned n = sizes[i];
    const ScaleCell c = run_scale_cell(n, duration);
    const testbed::ExperimentSummary& s = c.s;
    const double sim_seconds = static_cast<double>(duration.count_ns()) * 1e-9;
    const double sim_per_wall = c.wall > 0 ? sim_seconds / c.wall : 0.0;

    if (c.adv_full_scans != 0) {
      std::fprintf(stderr,
                   "scale: FAIL: %u-node case fell back to %" PRIu64
                   " full advertising scans (neighbor table not in effect)\n",
                   n, c.adv_full_scans);
      rc = 1;
    }
    if (s.coap_pdr <= 0.0) {
      std::fprintf(stderr, "scale: FAIL: %u-node case delivered nothing\n", n);
      rc = 1;
    }

    // Everything except wall time is deterministic; the fingerprint is the
    // cross-build reproducibility contract for generated worlds.
    char det[256];
    std::snprintf(det, sizeof det,
                  "n=%u sent=%" PRIu64 " acked=%" PRIu64
                  " mean_hops=%.6f max_hops=%" PRIu64 " routed=%" PRIu64
                  " scanned=%" PRIu64 ";",
                  n, s.sent, s.acked, s.topo_mean_hops, s.topo_max_hops,
                  c.adv_events_routed, c.adv_candidates_scanned);
    fingerprint_src += det;

    // The full counter map (per-node radio claims, energy, drops, ...): the
    // summary fields above would not see a wrong claim or charge total.
    std::string counters_src;
    for (const auto& [name, value] : s.counters) {
      char num[32];
      std::snprintf(num, sizeof num, "%.17g", value);
      counters_src += name + '=' + num + ';';
    }

    char line[1024];
    std::snprintf(line, sizeof line,
                  "    {\"nodes\": %u, \"sim_seconds\": %.0f, \"wall_seconds\": %.9f, "
                  "\"sim_per_wall\": %.1f, \"sent\": %" PRIu64 ", \"acked\": %" PRIu64
                  ", \"coap_pdr\": %.6f, \"mean_hops\": %.3f, \"max_hops\": %" PRIu64
                  ", \"adv_events_routed\": %" PRIu64
                  ", \"adv_candidates_scanned\": %" PRIu64
                  ", \"adv_full_scans\": %" PRIu64 ", \"counters_fnv1a\": \"%016" PRIx64
                  "\", \"idle_runs\": %s}%s\n",
                  n, sim_seconds, c.wall, sim_per_wall, s.sent, s.acked, s.coap_pdr,
                  s.topo_mean_hops, s.topo_max_hops,
                  c.adv_events_routed, c.adv_candidates_scanned, c.adv_full_scans,
                  fnv1a(counters_src), idle_runs_json(c.idle_runs).c_str(),
                  i + 1 == std::size(sizes) ? "" : ",");
    json += line;
    std::printf("scale: %5u nodes: %.0f sim-s in %.2f wall-s (%.0fx), PDR %.3f, "
                "mean hops %.2f, %" PRIu64 " adv routed / %" PRIu64 " scanned\n",
                n, sim_seconds, c.wall, sim_per_wall, s.coap_pdr, s.topo_mean_hops,
                c.adv_events_routed, c.adv_candidates_scanned);
  }
  char tail[96];
  std::snprintf(tail, sizeof tail, "  ],\n  \"deterministic_fnv1a\": \"%016" PRIx64
                "\"\n}\n",
                fnv1a(fingerprint_src));
  json += tail;
  campaign::write_file(out_dir + "/BENCH_scale.json", json);
  return rc;
}

/// A loopback link: frames the stack sends are counted and dropped, injected
/// frames arrive as if from the given neighbour.
class LoopNetif final : public net::Netif {
 public:
  bool send(NodeId /*next_hop*/, std::vector<std::uint8_t> /*frame*/) override {
    ++sent_;
    return true;
  }
  [[nodiscard]] std::size_t mtu() const override { return 1280; }
  [[nodiscard]] bool neighbor_up(NodeId /*neighbor*/) const override { return true; }
  void inject(NodeId from, std::vector<std::uint8_t> frame, sim::TimePoint at) {
    deliver_rx(from, std::move(frame), at);
  }
  [[nodiscard]] std::uint64_t sent() const { return sent_; }

 private:
  std::uint64_t sent_{0};
};

/// Host ns per CON request at a CoapServer whose dedup cache holds `cached`
/// live entries. Requests from 14 producers arrive evenly spaced so that the
/// cache spans exactly one dedup lifetime: each timed request expires the
/// oldest entry and inserts itself, keeping the occupancy at `cached`. Serving
/// a request must not depend on the occupancy; an expiry sweep over the whole
/// cache makes this grow linearly with it.
double coap_dedup_ns_per_request(std::size_t cached) {
  constexpr NodeId kServer = 1;
  constexpr std::size_t kProducers = 14;
  constexpr std::size_t kBatch = 1000;
  constexpr int kBatches = 5;
  sim::Simulator simu{1};
  LoopNetif netif;
  net::IpStack stack{simu, kServer, netif};
  stack.routes().set_default(net::Ipv6Addr::link_local(2));
  app::CoapServer server{stack};
  server.on_get("gap", [](const app::CoapMessage&, const net::Ipv6Addr&) {
    app::CoapMessage rsp;
    rsp.code = app::kCodeContent;
    return rsp;
  });

  // Request i: producer 2 + i % 14, message id i / 14 (distinct dedup keys),
  // arriving at i * spacing + 1 ns, so request i finds request i - cached
  // exactly one nanosecond past the lifetime.
  const std::size_t total = cached + kBatches * kBatch;
  const sim::Duration spacing = app::CoapServer::kDedupLifetime / static_cast<std::int64_t>(cached);
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto src = static_cast<NodeId>(2 + i % kProducers);
    app::CoapMessage req;
    req.type = app::CoapType::kCon;
    req.code = app::kCodeGet;
    req.message_id = static_cast<std::uint16_t>(i / kProducers);
    req.token = {static_cast<std::uint8_t>(i >> 24), static_cast<std::uint8_t>(i >> 16),
                 static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i)};
    req.add_uri_path("gap");
    const net::Ipv6Addr from = net::Ipv6Addr::site(src);
    const net::Ipv6Addr to = net::Ipv6Addr::site(kServer);
    const auto udp = net::udp_encode(from, to, 49152, app::kCoapPort, app::coap_encode(req));
    net::Ipv6Header h;
    h.payload_len = static_cast<std::uint16_t>(udp.size());
    h.src = from;
    h.dst = to;
    frames.push_back(net::sixlo_encode(net::ipv6_encode(h, udp),
                                       net::CompressionMode::kUncompressed, src, kServer));
  }
  std::size_t next = 0;
  const auto deliver = [&] {
    const sim::TimePoint at = sim::TimePoint::origin() +
                              spacing * static_cast<std::int64_t>(next) + sim::Duration::ns(1);
    netif.inject(static_cast<NodeId>(2 + next % kProducers), std::move(frames[next]), at);
    ++next;
  };
  while (next < cached) deliver();
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) deliver();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(kBatch));
  }
  if (server.requests_rx() != total || netif.sent() != total) {
    std::fprintf(stderr, "overload: dedup probe: requests went unanswered\n");
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

int run_overload(const std::string& out_dir, bool quick) {
  // Overload-survival smoke: the confirmable producer/consumer workload on
  // the 15-node tree at 50x the nominal offered load (20 ms producer
  // interval vs the paper's 1 s), run twice — flow-control mechanisms off
  // (the seed behavior) and all three layers on (deferred L2CAP credits,
  // bounded TX queues + backoff + breaker, CoCoA + NSTART). The contract:
  // the composed stack must deliver at least the off-config PDR under
  // overload, and the drop attribution must be deterministic.
  const sim::Duration duration = sim::Duration::sec(quick ? 30 : 60);

  struct Cell {
    const char* name;
    bool mechanisms;
    testbed::ExperimentSummary s;
  };
  Cell cells[] = {{"off", false, {}}, {"all", true, {}}};

  int rc = 0;
  std::string fingerprint_src;
  std::string json = "{\n  \"bench\": \"overload\",\n  \"cases\": [\n";
  double wall_total = 0.0;
  for (std::size_t i = 0; i < std::size(cells); ++i) {
    Cell& cell = cells[i];
    testbed::ExperimentConfig cfg;
    cfg.topology = testbed::Topology::tree15();
    cfg.duration = duration;
    cfg.confirmable_coap = true;
    cfg.producer_interval = sim::Duration::ms(20);
    cfg.producer_jitter = sim::Duration::ms(5);
    cfg.seed = 7;
    if (cell.mechanisms) {
      cfg.l2cap_deferred_credits = true;
      cfg.flow.txq_frames = 16;
      cfg.flow.backoff = true;
      cfg.flow.breaker = true;
      cfg.cc.mode = app::CoapCcConfig::Mode::kCocoa;
      cfg.cc.nstart = 16;
    }

    const auto t0 = std::chrono::steady_clock::now();
    testbed::Experiment exp{std::move(cfg)};
    exp.run();
    const double wall = seconds_since(t0);
    wall_total += wall;
    cell.s = exp.summary();
    const testbed::ExperimentSummary& s = cell.s;

    char det[320];
    std::snprintf(det, sizeof det,
                  "%s sent=%" PRIu64 " acked=%" PRIu64 " tail=%" PRIu64
                  " bp=%" PRIu64 " brk=%" PRIu64 " retx=%" PRIu64
                  " to=%" PRIu64 ";",
                  cell.name, s.sent, s.acked, s.pktbuf_drops,
                  s.backpressure_drops, s.breaker_drops,
                  s.coap_retransmissions, s.coap_timeouts);
    fingerprint_src += det;

    char line[512];
    std::snprintf(line, sizeof line,
                  "    {\"mechanisms\": \"%s\", \"sim_seconds\": %.0f, "
                  "\"wall_seconds\": %.9f, \"sent\": %" PRIu64
                  ", \"acked\": %" PRIu64 ", \"coap_pdr\": %.6f, "
                  "\"tail_drops\": %" PRIu64 ", \"backpressure_drops\": %" PRIu64
                  ", \"breaker_drops\": %" PRIu64
                  ", \"coap_retransmissions\": %" PRIu64
                  ", \"coap_timeouts\": %" PRIu64 "}%s\n",
                  cell.name, static_cast<double>(duration.count_ns()) * 1e-9,
                  wall, s.sent, s.acked, s.coap_pdr, s.pktbuf_drops,
                  s.backpressure_drops, s.breaker_drops, s.coap_retransmissions,
                  s.coap_timeouts, i + 1 < std::size(cells) ? "," : "");
    json += line;
    std::printf("overload: %-3s PDR %.3f (%" PRIu64 "/%" PRIu64
                "), drops tail=%" PRIu64 " bp=%" PRIu64 " brk=%" PRIu64
                ", retx=%" PRIu64 "\n",
                cell.name, s.coap_pdr, s.acked, s.sent, s.pktbuf_drops,
                s.backpressure_drops, s.breaker_drops, s.coap_retransmissions);
  }

  const double off_pdr = cells[0].s.coap_pdr;
  const double on_pdr = cells[1].s.coap_pdr;
  if (on_pdr < off_pdr) {
    std::fprintf(stderr,
                 "overload: FAIL: mechanisms-on PDR %.4f below mechanisms-off "
                 "%.4f under 50x load\n",
                 on_pdr, off_pdr);
    rc = 1;
  }

  // The server-side cost the overload workload leans on: ns per CON request
  // at 20k cached dedup entries over ns at 1k. ~1 when expiry pops the old
  // end of an arrival-ordered cache; ~17 for a sweep of the whole cache.
  const double dedup_1k = coap_dedup_ns_per_request(1'000);
  const double dedup_20k = coap_dedup_ns_per_request(20'000);
  const double dedup_ratio = dedup_1k > 0 ? dedup_20k / dedup_1k : 0.0;
  std::printf("overload: CoAP server %.0f ns/request @1k cached -> %.0f @20k (ratio %.2f)\n",
              dedup_1k, dedup_20k, dedup_ratio);

  char tail[512];
  std::snprintf(tail, sizeof tail,
                "  ],\n  \"wall_seconds\": %.9f,\n"
                "  \"pdr_off\": %.6f,\n  \"pdr_all\": %.6f,\n"
                "  \"dedup_ns_per_request_1k\": %.1f,\n"
                "  \"dedup_ns_per_request_20k\": %.1f,\n"
                "  \"dedup_scaling_ratio_1k_to_20k\": %.2f,\n"
                "  \"deterministic_fnv1a\": \"%016" PRIx64 "\"\n}\n",
                wall_total, off_pdr, on_pdr, dedup_1k, dedup_20k, dedup_ratio,
                fnv1a(fingerprint_src));
  json += tail;
  campaign::write_file(out_dir + "/BENCH_overload.json", json);
  return rc;
}

int run_mesh(const std::string& out_dir, bool quick) {
  // Bluetooth Mesh flooding smoke: the tuned sparse-relay operating point of
  // examples/experiments/backend_compare.campaign next to the full-density
  // cell on the same 36-node world. The contract: sparse flooding delivers
  // (PDR floor), full-density flooding delivers strictly less (the knee the
  // campaign plots), and every counter is deterministic (fingerprint).
  const sim::Duration duration = sim::Duration::sec(quick ? 45 : 90);

  struct Cell {
    const char* name;
    double relay_density;
    testbed::ExperimentSummary s;
    std::uint64_t relayed{0};
    std::uint64_t collisions{0};
    std::uint64_t queue_drops{0};
  };
  Cell cells[] = {{"sparse", 0.15, {}}, {"dense", 1.0, {}}};

  int rc = 0;
  std::string fingerprint_src;
  std::string json = "{\n  \"bench\": \"mesh\",\n  \"cases\": [\n";
  double wall_total = 0.0;
  for (std::size_t i = 0; i < std::size(cells); ++i) {
    Cell& cell = cells[i];
    testbed::ExperimentConfig cfg;
    cfg.radio = core::LinkBackendKind::kMesh;
    cfg.topo.generator = topo::Generator::kJitterGrid;
    cfg.topo.nodes = 36;
    cfg.duration = duration;
    cfg.producer_interval = sim::Duration::sec(30);
    cfg.producer_jitter = sim::Duration::sec(2);
    cfg.payload_len = 8;
    cfg.compression = net::CompressionMode::kIphc;
    cfg.mesh.ttl = 9;
    cfg.mesh.relay_density = cell.relay_density;
    cfg.mesh.transmit_count = 2;
    cfg.mesh.adv_interval = sim::Duration::ms(40);
    cfg.mesh.reasm_entries = 64;
    cfg.seed = 7;

    const auto t0 = std::chrono::steady_clock::now();
    testbed::Experiment exp{std::move(cfg)};
    exp.run();
    const double wall = seconds_since(t0);
    wall_total += wall;
    cell.s = exp.summary();
    const mesh::MeshWorld& world = *exp.mesh_world();
    for (const NodeId id : world.node_order()) {
      const mesh::MeshNodeStats& ns = world.stats(id);
      cell.relayed += ns.relayed;
      cell.collisions += ns.collisions;
      cell.queue_drops += ns.queue_drops;
    }
    const testbed::ExperimentSummary& s = cell.s;

    char det[320];
    std::snprintf(det, sizeof det,
                  "%s sent=%" PRIu64 " acked=%" PRIu64 " relayed=%" PRIu64
                  " collisions=%" PRIu64 " qdrops=%" PRIu64 ";",
                  cell.name, s.sent, s.acked, cell.relayed, cell.collisions,
                  cell.queue_drops);
    fingerprint_src += det;

    char line[512];
    std::snprintf(line, sizeof line,
                  "    {\"relay_density\": %.2f, \"sim_seconds\": %.0f, "
                  "\"wall_seconds\": %.9f, \"sent\": %" PRIu64
                  ", \"acked\": %" PRIu64 ", \"coap_pdr\": %.6f, "
                  "\"ll_pdr\": %.6f, \"relayed\": %" PRIu64
                  ", \"collisions\": %" PRIu64 ", \"queue_drops\": %" PRIu64
                  "}%s\n",
                  cell.relay_density,
                  static_cast<double>(duration.count_ns()) * 1e-9, wall, s.sent,
                  s.acked, s.coap_pdr, s.ll_pdr, cell.relayed, cell.collisions,
                  cell.queue_drops, i + 1 < std::size(cells) ? "," : "");
    json += line;
    std::printf("mesh: %-6s PDR %.3f (%" PRIu64 "/%" PRIu64
                "), llPDR %.3f, relayed %" PRIu64 ", collisions %" PRIu64 "\n",
                cell.name, s.coap_pdr, s.acked, s.sent, s.ll_pdr, cell.relayed,
                cell.collisions);
  }

  const double sparse_pdr = cells[0].s.coap_pdr;
  const double dense_pdr = cells[1].s.coap_pdr;
  if (sparse_pdr < 0.6) {
    std::fprintf(stderr,
                 "mesh: FAIL: sparse-relay PDR %.4f below the 0.6 floor\n",
                 sparse_pdr);
    rc = 1;
  }
  if (dense_pdr >= sparse_pdr) {
    std::fprintf(stderr,
                 "mesh: FAIL: full-density PDR %.4f did not fall below the "
                 "sparse point %.4f (no flooding knee)\n",
                 dense_pdr, sparse_pdr);
    rc = 1;
  }

  char tail[256];
  std::snprintf(tail, sizeof tail,
                "  ],\n  \"wall_seconds\": %.9f,\n"
                "  \"pdr_sparse\": %.6f,\n  \"pdr_dense\": %.6f,\n"
                "  \"deterministic_fnv1a\": \"%016" PRIx64 "\"\n}\n",
                wall_total, sparse_pdr, dense_pdr, fnv1a(fingerprint_src));
  json += tail;
  campaign::write_file(out_dir + "/BENCH_mesh.json", json);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  bool quick = false;
  bool want_event_queue = false;
  bool want_campaign = false;
  bool want_scale = false;
  bool want_overload = false;
  bool want_mesh = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "event_queue") == 0) {
      want_event_queue = true;
    } else if (std::strcmp(argv[i], "campaign") == 0) {
      want_campaign = true;
    } else if (std::strcmp(argv[i], "scale") == 0) {
      want_scale = true;
    } else if (std::strcmp(argv[i], "overload") == 0) {
      want_overload = true;
    } else if (std::strcmp(argv[i], "mesh") == 0) {
      want_mesh = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out DIR] [--quick] "
                   "[event_queue] [campaign] [scale] [overload] [mesh]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!want_event_queue && !want_campaign && !want_scale && !want_overload &&
      !want_mesh) {
    want_event_queue = true;
    want_campaign = true;
    want_scale = true;
    want_overload = true;
    want_mesh = true;
  }
  int rc = 0;
  if (want_event_queue) rc |= run_event_queue(out_dir, quick);
  if (want_campaign) rc |= run_campaign(out_dir, quick);
  if (want_scale) rc |= run_scale(out_dir, quick);
  if (want_overload) rc |= run_overload(out_dir, quick);
  if (want_mesh) rc |= run_mesh(out_dir, quick);
  return rc;
}
