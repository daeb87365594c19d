#pragma once
// Differential oracle: runs one ExperimentConfig twice and reports every
// observable output that differs — each summary field and the full
// observability counter map, in both directions.
//
// The two runs may use different run modes: as configured (idle BLE
// connections fast-forward) or event by event (a recorder collecting
// link-layer events keeps every connection event a real one). Either way
// they must be *bit-identical*, or must both fail
// with the identical error (random topo specs can fail construction
// deterministically, e.g. disconnected worlds). run_differential() reports
// the divergence as text, so the same fixture serves GTest
// (EXPECT_TRUE(r.ok) << r.divergence) and the choice-tape property engine
// (PROP_ASSERT(r.ok, r.divergence) lets the shrinker reduce any divergence to
// a minimal config).

#include <cstdint>
#include <cstdio>
#include <exception>
#include <map>
#include <string>

#include "obs/recorder.hpp"
#include "sim/trace.hpp"
#include "testbed/experiment.hpp"

namespace mgap::testhelpers {

/// How one run of the differential drives its experiment.
enum class RunMode {
  kAsConfigured,
  /// Attaches a recorder collecting link-layer events, which keeps every
  /// connection event a real heap event (no fast-forward). The recorder's
  /// own event count ("trace.events") is left out of the comparison.
  kEventByEvent,
};

/// Makes `recorder` want link-layer events: collected in memory, all other
/// categories off.
inline void record_link_layer(obs::Recorder& recorder) {
  recorder.collect(true);
  recorder.set_categories(sim::trace_cat_bit(sim::TraceCat::kLinkLayer));
}

struct OracleResult {
  bool ok{true};
  /// Human-readable description of every field that diverged (empty when ok).
  std::string divergence;
};

namespace detail {

inline void diverge(std::string& out, const std::string& line) {
  if (!out.empty()) out += '\n';
  out += line;
}

inline std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
inline std::string num(std::uint64_t v) { return std::to_string(v); }
inline std::string num(sim::Duration v) { return std::to_string(v.count_ns()) + "ns"; }
inline std::string num(const std::string& v) { return '"' + v + '"'; }

template <class T>
void cmp(std::string& out, const char* name, const T& a, const T& b) {
  if (a == b) return;
  diverge(out, std::string{name} + ": first=" + num(a) + " second=" + num(b));
}

inline void cmp_counters(std::string& out, std::map<std::string, double> a,
                         std::map<std::string, double> b, bool skip_trace_count) {
  if (skip_trace_count) {
    a.erase("trace.events");
    b.erase("trace.events");
  }
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end()) {
      diverge(out, "counters[" + k + "]: first=" + num(v) + " second=<absent>");
    } else if (it->second != v) {
      diverge(out, "counters[" + k + "]: first=" + num(v) + " second=" + num(it->second));
    }
  }
  for (const auto& [k, v] : b) {
    if (a.find(k) == a.end()) {
      diverge(out, "counters[" + k + "]: first=<absent> second=" + num(v));
    }
  }
}

/// Compares every observable field of the two summaries.
inline void cmp_summaries(std::string& out, const testbed::ExperimentSummary& a,
                          const testbed::ExperimentSummary& b,
                          bool skip_trace_count = false) {
#define MGAP_ORACLE_FIELD(f) cmp(out, #f, a.f, b.f)
  MGAP_ORACLE_FIELD(topo_generator);
  MGAP_ORACLE_FIELD(topo_seed);
  MGAP_ORACLE_FIELD(topo_nodes);
  MGAP_ORACLE_FIELD(topo_mean_hops);
  MGAP_ORACLE_FIELD(topo_max_hops);
  MGAP_ORACLE_FIELD(sent);
  MGAP_ORACLE_FIELD(acked);
  MGAP_ORACLE_FIELD(coap_pdr);
  MGAP_ORACLE_FIELD(ll_pdr);
  MGAP_ORACLE_FIELD(conn_losses);
  MGAP_ORACLE_FIELD(reconnects);
  MGAP_ORACLE_FIELD(pktbuf_drops);
  MGAP_ORACLE_FIELD(link_down_drops);
  MGAP_ORACLE_FIELD(backpressure_drops);
  MGAP_ORACLE_FIELD(breaker_drops);
  MGAP_ORACLE_FIELD(coap_retransmissions);
  MGAP_ORACLE_FIELD(coap_timeouts);
  MGAP_ORACLE_FIELD(rtt_p50);
  MGAP_ORACLE_FIELD(rtt_p99);
  MGAP_ORACLE_FIELD(rtt_max);
  MGAP_ORACLE_FIELD(faults_injected);
  MGAP_ORACLE_FIELD(losses_injected);
  MGAP_ORACLE_FIELD(losses_emergent);
  MGAP_ORACLE_FIELD(link_downs);
  MGAP_ORACLE_FIELD(link_ups);
  MGAP_ORACLE_FIELD(reconnect_p50);
  MGAP_ORACLE_FIELD(reconnect_max);
  MGAP_ORACLE_FIELD(repair_to_delivery_p50);
  MGAP_ORACLE_FIELD(pdr_pre_fault);
  MGAP_ORACLE_FIELD(pdr_during_fault);
  MGAP_ORACLE_FIELD(pdr_post_fault);
#undef MGAP_ORACLE_FIELD
  cmp_counters(out, a.counters, b.counters, skip_trace_count);
}


/// One full run; the error text lands in `error` instead of propagating.
inline testbed::ExperimentSummary run_one(const testbed::ExperimentConfig& cfg,
                                          RunMode mode, std::string& error) {
  try {
    testbed::Experiment e{cfg};
    if (mode == RunMode::kEventByEvent) record_link_layer(e.recorder());
    e.run();
    return e.summary();
  } catch (const std::exception& ex) {
    error = ex.what();
    return {};
  }
}

}  // namespace detail

/// Runs `cfg` once per mode and compares every observable output. Never
/// asserts itself — callers decide (EXPECT_TRUE(r.ok) << r.divergence, or
/// PROP_ASSERT(r.ok, r.divergence)).
inline OracleResult run_differential(const testbed::ExperimentConfig& cfg,
                                     RunMode first_mode = RunMode::kAsConfigured,
                                     RunMode second_mode = RunMode::kAsConfigured) {
  OracleResult r;
  std::string first_error;
  std::string second_error;
  const testbed::ExperimentSummary first = detail::run_one(cfg, first_mode, first_error);
  const testbed::ExperimentSummary second = detail::run_one(cfg, second_mode, second_error);
  if (first_error != second_error) {
    detail::diverge(r.divergence,
                    "error: first=\"" + first_error + "\" second=\"" + second_error + '"');
  } else if (first_error.empty()) {
    detail::cmp_summaries(r.divergence, first, second, first_mode != second_mode);
  }
  r.ok = r.divergence.empty();
  return r;
}

}  // namespace mgap::testhelpers
