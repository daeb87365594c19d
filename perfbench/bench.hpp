#pragma once
// Shared pieces of the mgbench program: the three workload definitions, the
// output fingerprint, in-memory spans, a small JSON writer and the layer
// drivers. Everything here calls the simulator through its public headers
// only; README.md beside this file explains what each piece measures.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/spec.hpp"
#include "net/sixlowpan.hpp"
#include "testbed/experiment.hpp"

namespace mgbench {

using Clock = std::chrono::steady_clock;

enum class Workload { kRgg3kIdle, kTree15Overload, kTree15Campaign };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Every workload as a campaign: its configuration grid and replication
/// seeds for benchmark seed `seed`.
[[nodiscard]] mgap::campaign::CampaignSpec workload_spec(Workload w, std::uint64_t seed);

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Flat JSON object writer: {"key": value, ...} on one line.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double value);
  JsonObject& str(std::string_view key, std::string_view value);
  JsonObject& nums(std::string_view key, const std::vector<double>& values);
  JsonObject& strs(std::string_view key, const std::vector<std::string>& values);
  /// Inserts an already-serialized JSON value.
  JsonObject& raw(std::string_view key, std::string_view json);
  [[nodiscard]] std::string text() const { return body_ + "}"; }

 private:
  void key(std::string_view k);
  std::string body_{"{"};
};

/// Host-time spans recorded in memory around calls into the simulator and
/// written out once the run is over.
class SpanLog {
 public:
  /// Opens a span and returns its index; `parent` is -1 for a root span.
  int begin(std::string name, int parent = -1);
  void end(int span);
  [[nodiscard]] double seconds(int span) const;
  /// [{"name":..., "parent":..., "start_ns":..., "end_ns":...}, ...]
  [[nodiscard]] std::string json() const;

 private:
  struct Span {
    std::string name;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  Clock::time_point origin_{Clock::now()};
  std::vector<Span> spans_;
};

// --- layer drivers ----------------------------------------------------------
// Each times public calls only, over several batches, and returns the median
// batch cost per operation.

/// sim::EventQueue pop + schedule pairs at `live` live events (ns per pair).
[[nodiscard]] double drive_event_queue(std::size_t live, std::uint64_t seed);
/// ble::Csa2::channel on the workloads' channel map (ns per call).
[[nodiscard]] double drive_csa2(std::uint64_t seed);
/// ble::RadioScheduler::release + try_claim for periodic connection-event
/// claims of `owners` connections on one radio (ns per claim).
[[nodiscard]] double drive_try_claim(std::size_t owners, mgap::sim::Duration interval_lo,
                                     mgap::sim::Duration interval_hi, std::uint64_t seed);
/// One CoAP request packet as the producers send it: IPv6 + UDP + CoAP.
[[nodiscard]] std::vector<std::uint8_t> request_packet(std::size_t payload_len);
/// net::sixlo_encode + sixlo_decode of `packet` (ns per packet).
[[nodiscard]] double drive_sixlo(const std::vector<std::uint8_t>& packet,
                                 mgap::net::CompressionMode mode);
/// app::coap_encode + coap_decode of a producer request (ns per pair).
[[nodiscard]] double drive_coap_codec(std::size_t payload_len);
/// CON requests fed to an app::CoapServer through its IpStack over a
/// loopback netif, with `occupancy` entries already in the dedup cache
/// (microseconds per request).
[[nodiscard]] double drive_coap_server(std::size_t occupancy, std::size_t payload_len,
                                       mgap::net::CompressionMode mode);
/// topo::generate_world on the rgg3k_idle world spec (seconds per call).
[[nodiscard]] double drive_generate_world(std::uint64_t seed, SpanLog& spans);

[[nodiscard]] double median(std::vector<double> values);

// --- entry points (mgbench.cpp dispatches) ---------------------------------

/// One timed repetition, tracing off. Prints one JSON object on stdout.
int run_rep(Workload w, std::uint64_t seed);
/// The traced run plus the layer drivers. Prints the per-layer metrics as one
/// JSON object on stdout and writes spans and input shapes to `spans_path`.
int run_trace(Workload w, std::uint64_t seed, const std::string& spans_path);

}  // namespace mgbench
