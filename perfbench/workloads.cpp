// The three benchmark workloads, the timed repetition and the traced run.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "campaign/runner.hpp"
#include "campaign/writers.hpp"
#include "obs/events.hpp"
#include "sim/build_info.hpp"

namespace mgbench {

using namespace mgap;

namespace {

/// The paper's tree PDR under moderate load (section 4.3), the reference
/// model.pdr_err_vs_paper is measured against.
constexpr double kPaperTreePdr = 0.99949;

/// Threads the tree15_campaign runner uses.
constexpr unsigned kCampaignThreads = 2;

/// The spec's cells (grid points x seeds) in CampaignRunner order.
std::vector<testbed::ExperimentConfig> cell_configs(const campaign::CampaignSpec& spec) {
  std::vector<testbed::ExperimentConfig> cells;
  for (const campaign::CellConfig& cell : campaign::expand_grid(spec)) {
    for (const std::uint64_t s : spec.effective_seeds()) {
      cells.push_back(cell.config);
      cells.back().seed = s;
    }
  }
  return cells;
}

/// Simulated seconds one experiment covers: duration plus drain.
double simulated_seconds(const testbed::ExperimentConfig& cfg) {
  return static_cast<double>((cfg.duration + cfg.drain).count_ns()) * 1e-9;
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// The deterministic summary fields in a fixed text form. Host timings and
/// the registry counters (which include the trace's own event count) are
/// left out, so a traced run must reproduce an untraced one exactly.
std::string canonical_summary(const testbed::ExperimentSummary& s) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s seed=%" PRIu64 " nodes=%" PRIu64 " hops=%.9g/%" PRIu64 " sent=%" PRIu64
                " acked=%" PRIu64 " pdr=%.17g llpdr=%.17g losses=%" PRIu64
                " reconnects=%" PRIu64 " pktbuf=%" PRIu64 " linkdown=%" PRIu64
                " bp=%" PRIu64 " brk=%" PRIu64 " retx=%" PRIu64 " to=%" PRIu64
                " rtt=%" PRId64 "/%" PRId64 "/%" PRId64 ";",
                s.topo_generator.c_str(), s.topo_seed, s.topo_nodes, s.topo_mean_hops,
                s.topo_max_hops, s.sent, s.acked, s.coap_pdr, s.ll_pdr, s.conn_losses,
                s.reconnects, s.pktbuf_drops, s.link_down_drops, s.backpressure_drops,
                s.breaker_drops, s.coap_retransmissions, s.coap_timeouts,
                s.rtt_p50.count_ns(), s.rtt_p99.count_ns(), s.rtt_max.count_ns());
  return buf;
}

/// Recorder categories of the traced run. The link-layer category (connection
/// events, PDUs, radio claims) is collected only inside a window of simulated
/// time: over a whole 3k-node run it would hold millions of events, and ten
/// times as many at 10k nodes (~1 GB).
constexpr std::uint32_t kLinkLayerBit = sim::trace_cat_bit(sim::TraceCat::kLinkLayer);
constexpr std::uint32_t kBaseMask = sim::kAllTraceCats & ~kLinkLayerBit;

struct LlWindow {
  sim::Duration start;
  sim::Duration length;
};

LlWindow ll_window(Workload w, const testbed::ExperimentConfig& cfg) {
  switch (w) {
    case Workload::kRgg3kIdle: return {cfg.duration / 2, sim::Duration::sec(1)};
    case Workload::kTree15Overload: return {sim::Duration{}, cfg.duration + cfg.drain};
    case Workload::kTree15Campaign: return {cfg.duration / 2, sim::Duration::sec(60)};
  }
  return {};
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double counter(const testbed::ExperimentSummary& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Resident-set high-water mark of this process since exec (VmHWM), in KiB.
/// The process runs one repetition, so this is that run's. getrusage's
/// ru_maxrss would also count the parent's pages copied at fork.
double peak_rss_kib() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  }
  throw std::runtime_error{"no VmHWM in /proc/self/status"};
}

/// Output checks every run of a workload must pass; returns the names of the
/// failed ones.
std::vector<std::string> check_summary(Workload w, const testbed::ExperimentSummary& s,
                                       std::uint64_t adv_full_scans) {
  std::vector<std::string> failed;
  if (w == Workload::kRgg3kIdle) {
    if (adv_full_scans != 0) failed.emplace_back("adv_full_scans");
    if (!(s.coap_pdr > 0.0)) failed.emplace_back("pdr_positive");
  }
  if (s.acked > s.sent) failed.emplace_back("acked_le_sent");
  return failed;
}

/// One traced experiment: recorder collecting in memory, the run cut into
/// sixths of its duration (plus the drain) with a span around each piece.
struct TracedRun {
  testbed::ExperimentSummary summary;
  double wall_s{0.0};     // construction + run + summary
  double summary_s{0.0};
  std::vector<double> sixth_s = std::vector<double>(6, 0.0);
  std::uint64_t events_fired{0};
  std::uint64_t events_cancelled{0};
  std::uint64_t live_end{0};
  std::vector<double> live_samples;  // live events at each sixth boundary
  std::uint64_t conn_events{0};      // all connection events (coordinator side)
  std::uint64_t ll_conn_events{0};   // traced kConnEvent inside the window
  std::uint64_t ll_idle_events{0};   // ... that carried no data PDU
  std::uint64_t pdu_tx{0};
  std::uint64_t pdu_retx{0};
  std::uint64_t ip_forwarded{0};
  std::uint64_t collected{0};
  std::uint64_t adv_routed{0};
  std::uint64_t adv_scanned{0};
  std::uint64_t adv_full_scans{0};
  double conns_per_node{0.0};
  std::uint64_t con_requests_rx{0};
};

TracedRun traced_experiment(const testbed::ExperimentConfig& cfg, LlWindow ll,
                            SpanLog& spans, int parent) {
  TracedRun r;
  const auto t0 = Clock::now();
  const int construct = spans.begin("experiment.construct", parent);
  auto exp = std::make_unique<testbed::Experiment>(cfg);
  spans.end(construct);
  obs::Recorder& rec = exp->recorder();
  rec.collect(true);

  // Piece boundaries: the six sixths plus the edges of the link-layer window.
  const sim::Duration sixth = cfg.duration / 6;
  std::vector<sim::Duration> cuts;
  for (int k = 1; k <= 6; ++k) cuts.push_back(k == 6 ? cfg.duration : sixth * k);
  for (const sim::Duration edge : {ll.start, ll.start + ll.length}) {
    if (edge > sim::Duration{} && edge < cfg.duration) cuts.push_back(edge);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  const auto in_window = [&ll](sim::Duration from, sim::Duration to) {
    return from >= ll.start && to <= ll.start + ll.length;
  };
  sim::Duration from{};
  std::size_t piece = 0;
  for (const sim::Duration to : cuts) {
    rec.set_categories(in_window(from, to) ? sim::kAllTraceCats : kBaseMask);
    const int span = spans.begin("run.slice_" + std::to_string(piece++), parent);
    exp->simulator().run_until(sim::TimePoint::origin() + to);
    spans.end(span);
    const auto k = static_cast<std::size_t>(
        std::min<std::int64_t>(5, (to - sim::Duration::ns(1)) / sixth));
    r.sixth_s[k] += spans.seconds(span);
    if (to.count_ns() % sixth.count_ns() == 0) {
      r.live_samples.push_back(static_cast<double>(exp->simulator().events_pending()));
    }
    from = to;
  }
  // The rest of Experiment::run(): producers stop, then the drain.
  rec.set_categories(in_window(cfg.duration, cfg.duration + cfg.drain) ? sim::kAllTraceCats
                                                                       : kBaseMask);
  const int drain = spans.begin("run.drain", parent);
  exp->run();
  spans.end(drain);
  const int sum = spans.begin("experiment.summary", parent);
  r.summary = exp->summary();
  spans.end(sum);
  r.summary_s = spans.seconds(sum);
  r.wall_s = seconds_since(t0);

  const sim::Simulator& simu = exp->simulator();
  r.events_fired = simu.events_fired();
  r.events_cancelled = simu.events_cancelled();
  r.live_end = simu.events_pending();
  if (const ble::BleWorld* world = exp->ble_world()) {
    std::uint64_t conn_ends = 0;
    for (const ble::Controller* ctrl : world->nodes()) {
      r.conn_events += ctrl->activity().conn_events_coord;
      conn_ends += ctrl->connections().size();
    }
    r.conns_per_node = ratio(static_cast<double>(conn_ends),
                             static_cast<double>(world->nodes().size()));
    r.adv_routed = world->adv_events_routed();
    r.adv_scanned = world->adv_candidates_scanned();
    r.adv_full_scans = world->adv_full_scans();
  }
  if (cfg.confirmable_coap) r.con_requests_rx = exp->consumer().requests_rx();

  // A connection event is idle when no data PDU of that connection was
  // traced since its previous event (kPduTx precedes its kConnEvent).
  std::vector<bool> carried;
  for (const obs::Event& e : rec.collected()) {
    switch (e.type) {
      case obs::EventType::kPduTx:
        ++r.pdu_tx;
        if ((e.flags & obs::kPduRetrans) != 0) ++r.pdu_retx;
        if (e.id >= carried.size()) carried.resize(e.id + 1, false);
        carried[e.id] = true;
        break;
      case obs::EventType::kConnEvent:
        ++r.ll_conn_events;
        if (e.id >= carried.size()) carried.resize(e.id + 1, false);
        if (!carried[e.id]) ++r.ll_idle_events;
        carried[e.id] = false;
        break;
      case obs::EventType::kIpPacket:
        if (e.flags == obs::kIpForward) ++r.ip_forwarded;
        break;
      default:
        break;
    }
  }
  r.collected = rec.collected().size();
  return r;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "rgg3k_idle") return Workload::kRgg3kIdle;
  if (name == "tree15_overload") return Workload::kTree15Overload;
  if (name == "tree15_campaign") return Workload::kTree15Campaign;
  return std::nullopt;
}

campaign::CampaignSpec workload_spec(Workload w, std::uint64_t seed) {
  campaign::CampaignSpec spec;
  testbed::ExperimentConfig& cfg = spec.base;
  cfg.duration = sim::Duration::sec(60);
  std::size_t replications = 1;
  switch (w) {
    case Workload::kRgg3kIdle:
      // The 3k row of the scale bench: ~25 in-range neighbours at 10 m,
      // light traffic, randomized connection intervals. The placement is
      // that row's world (seed 7) for every benchmark seed: worlds of other
      // seeds differ in memory footprint, which would blur peak_rss_mb. The
      // benchmark seed drives the run's random streams (intervals, drift,
      // jitter, PER). Not the 10k row: on a shared host the speed of its
      // ~115 MiB working set swung by up to 2x within minutes, and one of
      // its runs holds only two or three repetitions; this ~40 MiB world
      // swings less and fits ~15 (README.md, Why 3k and not 10k).
      spec.name = "rgg3k_idle";
      cfg.topo.generator = topo::Generator::kRgg;
      cfg.topo.seed = 7;
      cfg.topo.nodes = 3000;
      cfg.topo.density = 8.0;
      cfg.topo.range = 10.0;
      cfg.producer_interval = sim::Duration::sec(30);
      cfg.producer_jitter = sim::Duration::sec(10);
      cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65), sim::Duration::ms(85));
      break;
    case Workload::kTree15Overload:
      // The paper tree under confirmable CoAP overload, all three flow layers
      // on: 60 +- 15 ms producers (~17x the paper's load) and randomized
      // connection intervals (the paper's mitigation). At 50x load, or with
      // one fixed 75 ms interval, the consumer's delivered count depends on
      // the seed (8k to 22k requests), and the run's cost, quadratic in that
      // count through the CoAP dedup cache, varied tenfold between seeds.
      // At this load 11 seeds in 12 deliver every one of the ~13.5k requests;
      // the run's cost still differs by ~10% between seeds, so one
      // repetition runs three.
      spec.name = "tree15_overload";
      replications = 3;
      cfg.topology = testbed::Topology::tree15();
      cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65), sim::Duration::ms(85));
      cfg.confirmable_coap = true;
      cfg.producer_interval = sim::Duration::ms(60);
      cfg.producer_jitter = sim::Duration::ms(15);
      cfg.l2cap_deferred_credits = true;
      cfg.flow.txq_frames = 16;
      cfg.flow.backoff = true;
      cfg.flow.breaker = true;
      cfg.cc.mode = app::CoapCcConfig::Mode::kCocoa;
      cfg.cc.nstart = 16;
      break;
    case Workload::kTree15Campaign:
      // Section 4.3 moderate load (1 s +- 0.5 s producers, 39 B payload):
      // static vs randomized connection intervals, six replication seeds,
      // 1 sim-h each.
      spec.name = "tree15_campaign";
      replications = 6;
      cfg.topology = testbed::Topology::tree15();
      cfg.duration = sim::Duration::hours(1);
      cfg.producer_interval = sim::Duration::sec(1);
      cfg.producer_jitter = sim::Duration::ms(500);
      cfg.payload_len = 39;
      spec.axes.push_back({"conn_interval", {"75ms", "65:85ms"}});
      break;
  }
  // Replication seeds 1000 apart, so neighbouring benchmark seeds share no run.
  for (std::size_t i = 0; i < replications; ++i) spec.seeds.push_back(seed + 1000 * i);
  return spec;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int run_rep(Workload w, std::uint64_t seed) {
  const campaign::CampaignSpec spec = workload_spec(w, seed);
  const std::vector<testbed::ExperimentConfig> cells = cell_configs(spec);
  JsonObject out;
  std::vector<std::string> failed;

  // Set-up: every cell's Experiment construction, repeated round-robin so
  // set-up time is a median over many samples.
  std::vector<double> setup;
  const std::size_t constructions = w == Workload::kRgg3kIdle ? 6 : 36;
  for (std::size_t i = 0; i < constructions; ++i) {
    const auto t0 = Clock::now();
    const testbed::Experiment exp{cells[i % cells.size()]};
    setup.push_back(seconds_since(t0));
  }

  double run_s = 0.0;
  double sim_s = 0.0;
  std::string canon;
  if (w == Workload::kTree15Campaign) {
    campaign::RunnerOptions options;
    options.threads = kCampaignThreads;
    options.progress = false;
    const auto t0 = Clock::now();
    const campaign::CampaignResult result = campaign::CampaignRunner{options}.run(spec);
    run_s = seconds_since(t0);
    for (const campaign::CellResult& cell : result.cells) {
      for (auto& f : check_summary(w, cell.summary, 0)) failed.push_back(f);
      canon += canonical_summary(cell.summary);
      sim_s += simulated_seconds(spec.base);
    }
    out.str("json_fnv1a", hex64(fnv1a(campaign::to_json(result, false))));
  } else {
    for (const testbed::ExperimentConfig& cfg : cells) {
      testbed::Experiment exp{cfg};
      const auto t0 = Clock::now();
      exp.run();
      run_s += seconds_since(t0);
      sim_s += simulated_seconds(cfg);
      const testbed::ExperimentSummary s = exp.summary();
      for (auto& f : check_summary(w, s, exp.ble_world()->adv_full_scans())) {
        failed.push_back(f);
      }
      canon += canonical_summary(s);
    }
  }
  out.num("run_s", run_s)
      .num("sim_s", sim_s)
      .str("fnv1a", hex64(fnv1a(canon)))
      .num("peak_rss_kb", peak_rss_kib())
      .nums("setup_s", setup)
      .strs("failed_checks", failed);
  std::printf("%s\n", out.text().c_str());
  return 0;
}

int run_trace(Workload w, std::uint64_t seed, const std::string& spans_path) {
  SpanLog spans;
  std::vector<std::string> failed;

  // Untraced reference run through the campaign runner; serial unless the
  // workload itself is the threaded sweep.
  const campaign::CampaignSpec spec = workload_spec(w, seed);
  campaign::RunnerOptions options;
  options.threads = w == Workload::kTree15Campaign ? kCampaignThreads : 1;
  options.progress = false;
  const int untraced = spans.begin("untraced");
  const int run_span = spans.begin("campaign.run", untraced);
  const campaign::CampaignResult result = campaign::CampaignRunner{options}.run(spec);
  spans.end(run_span);
  const int json_span = spans.begin("campaign.to_json", untraced);
  const std::string json = campaign::to_json(result, false);
  spans.end(json_span);
  spans.end(untraced);

  // The traced run: every cell again, as a traced Experiment.
  const int traced = spans.begin("traced");
  std::vector<TracedRun> runs;
  std::string canon_untraced;
  std::string canon_traced;
  for (const campaign::CellResult& cell : result.cells) {
    testbed::ExperimentConfig cfg = result.configs[cell.config_index].config;
    cfg.seed = cell.seed;
    const int cell_span = spans.begin("traced.cell", traced);
    runs.push_back(traced_experiment(cfg, ll_window(w, cfg), spans, cell_span));
    spans.end(cell_span);
    const TracedRun& r = runs.back();
    canon_untraced += canonical_summary(cell.summary);
    canon_traced += canonical_summary(r.summary);
    for (auto& f : check_summary(w, r.summary, r.adv_full_scans)) failed.push_back(f);
  }
  spans.end(traced);
  const std::uint64_t fingerprint = fnv1a(canon_traced);
  if (fingerprint != fnv1a(canon_untraced)) failed.emplace_back("traced_fnv1a");

  // Totals over the traced runs (one run, or the campaign's cells).
  double fired = 0, cancelled = 0, live_end = 0, conn_events = 0, ll_events = 0,
         ll_idle = 0, pdu_tx = 0, pdu_retx = 0, forwarded = 0, adv_routed = 0,
         adv_scanned = 0, traced_wall = 0, sent = 0, acked = 0, collected = 0;
  double claims_granted = 0, claims_denied = 0, stalls = 0, conn_losses = 0,
         reconnects = 0, pktbuf_drops = 0, high_water = 0, bp_drops = 0, deferrals = 0,
         retx = 0, timeouts = 0, nstart = 0, con_rx = 0, conns_per_node = 0;
  std::vector<double> live, growth, summary_s, rtt50, rtt99;
  for (const TracedRun& r : runs) {
    const testbed::ExperimentSummary& s = r.summary;
    fired += static_cast<double>(r.events_fired);
    cancelled += static_cast<double>(r.events_cancelled);
    live_end += static_cast<double>(r.live_end);
    live.insert(live.end(), r.live_samples.begin(), r.live_samples.end());
    conn_events += static_cast<double>(r.conn_events);
    ll_events += static_cast<double>(r.ll_conn_events);
    ll_idle += static_cast<double>(r.ll_idle_events);
    pdu_tx += static_cast<double>(r.pdu_tx);
    pdu_retx += static_cast<double>(r.pdu_retx);
    forwarded += static_cast<double>(r.ip_forwarded);
    adv_routed += static_cast<double>(r.adv_routed);
    adv_scanned += static_cast<double>(r.adv_scanned);
    collected = std::max(collected, static_cast<double>(r.collected));
    traced_wall += r.wall_s;
    growth.push_back(ratio(r.sixth_s[5], r.sixth_s[0]));
    summary_s.push_back(r.summary_s);
    sent += static_cast<double>(s.sent);
    acked += static_cast<double>(s.acked);
    rtt50.push_back(static_cast<double>(s.rtt_p50.count_ns()) * 1e-6);
    rtt99.push_back(static_cast<double>(s.rtt_p99.count_ns()) * 1e-6);
    claims_granted += counter(s, "radio.claims_granted");
    claims_denied += counter(s, "radio.claims_denied");
    stalls += counter(s, "l2cap.credit_stalls");
    conn_losses += static_cast<double>(s.conn_losses);
    reconnects += static_cast<double>(s.reconnects);
    pktbuf_drops += static_cast<double>(s.pktbuf_drops);
    high_water = std::max(high_water, counter(s, "pktbuf.high_water"));
    bp_drops += static_cast<double>(s.backpressure_drops);
    deferrals += counter(s, "flow.deferrals");
    retx += static_cast<double>(s.coap_retransmissions);
    timeouts += static_cast<double>(s.coap_timeouts);
    nstart += counter(s, "coap.nstart_deferrals");
    con_rx = std::max(con_rx, static_cast<double>(r.con_requests_rx));
    conns_per_node = std::max(conns_per_node, r.conns_per_node);
  }
  double cell_wall_sum = 0;
  std::vector<double> cell_walls;
  for (const campaign::CellResult& cell : result.cells) {
    cell_wall_sum += cell.wall_seconds;
    cell_walls.push_back(cell.wall_seconds);
  }
  const double pdr = ratio(acked, sent);

  // Layer drivers, fed with inputs shaped like this workload.
  const testbed::ExperimentConfig& cfg0 = result.configs.front().config;
  const auto live_shape = static_cast<std::size_t>(median(live));
  const auto owners_shape = static_cast<std::size_t>(std::lround(std::max(1.0, conns_per_node)));
  const auto occupancy_shape = static_cast<std::size_t>(con_rx);
  const std::vector<std::uint8_t> packet = request_packet(cfg0.payload_len);
  const int drivers = spans.begin("drivers");
  const double queue_ns = drive_event_queue(live_shape, seed);
  const double csa2_ns = drive_csa2(seed);
  const double claim_ns =
      drive_try_claim(owners_shape, cfg0.policy.lo(), cfg0.policy.hi(), seed);
  const double sixlo_ns = drive_sixlo(packet, cfg0.compression);
  const double codec_ns = drive_coap_codec(cfg0.payload_len);
  const double server_us = drive_coap_server(occupancy_shape, cfg0.payload_len, cfg0.compression);
  const double server_empty_us = drive_coap_server(0, cfg0.payload_len, cfg0.compression);
  const double world_s = drive_generate_world(seed, spans);
  spans.end(drivers);

  JsonObject m;
  m.num("sim.events_fired", fired)
      .num("sim.events_cancelled", cancelled)
      .num("sim.ns_per_event", ratio(cell_wall_sum * 1e9, fired))
      .num("sim.queue_live_end", live_end)
      .num("sim.queue_churn_ns_per_op", queue_ns)
      .num("ble.conn_events", conn_events)
      .num("ble.conn_events_idle_ratio", ratio(ll_idle, ll_events))
      .num("ble.radio_claims_granted", claims_granted)
      .num("ble.radio_claims_denied_ratio", ratio(claims_denied, claims_granted + claims_denied))
      .num("ble.pdu_tx", pdu_tx)
      .num("ble.pdu_retx_ratio", ratio(pdu_retx, pdu_tx))
      .num("ble.csa2_ns_per_call", csa2_ns)
      .num("ble.try_claim_ns_per_call", claim_ns)
      .num("ble.adv_scanned_per_routed", ratio(adv_scanned, adv_routed))
      .num("ble.l2cap_credit_stalls", stalls)
      .num("core.conn_losses", conn_losses)
      .num("core.reconnects", reconnects)
      .num("net.ip_forwarded", forwarded)
      .num("net.pktbuf_drops", pktbuf_drops)
      .num("net.pktbuf_high_water", high_water)
      .num("net.backpressure_drops", bp_drops)
      .num("net.flow_deferrals", deferrals)
      .num("net.sixlo_ns_per_packet", sixlo_ns)
      .num("app.coap_sent", sent)
      .num("app.coap_acked", acked)
      .num("app.coap_retransmissions", retx)
      .num("app.coap_timeouts", timeouts)
      .num("app.nstart_deferrals", nstart)
      .num("app.coap_codec_ns", codec_ns)
      .num("app.coap_server_us_per_request", server_us)
      .num("app.coap_server_us_per_request_empty", server_empty_us)
      .num("topo.generate_world_s", world_s)
      .num("testbed.run_slice_growth", median(growth))
      .num("testbed.summary_s", median(summary_s))
      .num("campaign.cell_wall_s_p50", median(cell_walls))
      .num("campaign.cell_wall_s_max", *std::max_element(cell_walls.begin(), cell_walls.end()))
      .num("campaign.thread_efficiency",
           ratio(cell_wall_sum, result.threads_used * spans.seconds(run_span)))
      .num("campaign.to_json_s", spans.seconds(json_span))
      .num("obs.trace_overhead_ratio", ratio(traced_wall, cell_wall_sum))
      .num("model.coap_pdr", pdr)
      .num("model.rtt_p50_ms", median(rtt50))
      .num("model.rtt_p99_ms", median(rtt99))
      .num("model.fnv1a", static_cast<double>(fingerprint & ((1ull << 52) - 1)))
      .num("model.pdr_err_vs_paper", std::fabs(pdr - kPaperTreePdr));

  JsonObject shapes;
  shapes.num("queue_live_events", static_cast<double>(live_shape))
      .num("claim_owners_per_radio", static_cast<double>(owners_shape))
      .num("ip_packet_bytes", static_cast<double>(packet.size()))
      .num("coap_payload_bytes", static_cast<double>(cfg0.payload_len))
      .num("dedup_occupancy", static_cast<double>(occupancy_shape))
      .num("ll_window_start_s", static_cast<double>(ll_window(w, cfg0).start.count_ns()) / 1e9)
      .num("ll_window_length_s", static_cast<double>(ll_window(w, cfg0).length.count_ns()) / 1e9)
      .num("trace_events_collected_max", collected);
  JsonObject file;
  file.str("workload", spec.name)
      .num("seed", static_cast<double>(seed))
      .str("code_version", sim::code_version())
      .str("fnv1a", hex64(fingerprint))
      .str("json_fnv1a", hex64(fnv1a(json)))
      .raw("shapes", shapes.text())
      .raw("spans", spans.json());
  if (!spans_path.empty()) {
    std::ofstream f{spans_path};
    f << file.text() << "\n";
    if (!f) {
      std::fprintf(stderr, "mgbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }

  JsonObject out;
  out.num("runs", static_cast<double>(2 * result.cells.size()))
      .strs("failed_checks", failed)
      .raw("metrics", m.text());
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace mgbench
