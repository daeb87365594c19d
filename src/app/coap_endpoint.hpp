#pragma once
// CoAP endpoints on top of the UDP stack: a resource server (gcoap
// equivalent) and a request client that matches responses by token and
// reports round-trip times — the metric pipeline of section 5 (RTT is
// "request handed to the stack" until "response handed back", Figure 7b).

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "app/coap.hpp"
#include "net/ip_stack.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace mgap::sim {
class Simulator;
}

namespace mgap::app {

class CoapServer {
 public:
  /// Handler: builds the response for a request (token/MID are filled in).
  using Handler = std::function<CoapMessage(const CoapMessage& request,
                                            const net::Ipv6Addr& from)>;

  CoapServer(net::IpStack& stack, std::uint16_t port = kCoapPort);

  /// Registers a GET resource at `path` ("gap", "sensors/temp", ...).
  void on_get(std::string path, Handler handler);

  [[nodiscard]] std::uint64_t requests_rx() const { return requests_rx_; }
  [[nodiscard]] std::uint64_t responses_tx() const { return responses_tx_; }
  /// Duplicate CON requests absorbed by the message-id cache (replayed).
  [[nodiscard]] std::uint64_t duplicates_rx() const { return duplicates_rx_; }

  /// How long a CON response stays replayable. A deliberate model choice,
  /// not RFC 7252's EXCHANGE_LIFETIME (~247 s): 60 s covers every
  /// retransmission window of the workloads here and bounds memory. Expiry is
  /// strict — an entry exactly this old is still replayed. Changing the value
  /// changes which retransmissions re-run the handler, and so moves the
  /// overload fingerprints.
  static constexpr sim::Duration kDedupLifetime = sim::Duration::sec(60);

 private:
  /// A cached reply. Up to kInlineBytes live in place — a piggybacked ACK
  /// with a 4-byte token is 8 bytes — so a typical entry allocates nothing
  /// beyond its map node; longer replies go to the heap.
  class CachedWire {
   public:
    explicit CachedWire(std::span<const std::uint8_t> wire);
    [[nodiscard]] std::vector<std::uint8_t> to_vector() const;

   private:
    static constexpr std::size_t kInlineBytes = 12;
    std::unique_ptr<std::uint8_t[]> heap_;  // null when the reply fits inline
    std::uint32_t size_{0};
    std::array<std::uint8_t, kInlineBytes> inline_{};
  };
  struct CachedResponse {
    sim::TimePoint at;
    CachedWire wire;
  };
  using DedupMap = std::map<std::pair<net::Ipv6Addr, std::uint16_t>, CachedResponse>;

  void on_datagram(const net::Ipv6Addr& src, std::uint16_t src_port, std::uint16_t dst_port,
                   std::vector<std::uint8_t> payload, sim::TimePoint at);

  net::IpStack& stack_;
  std::uint16_t port_;
  std::map<std::string, Handler> resources_;
  std::uint64_t requests_rx_{0};
  std::uint64_t responses_tx_{0};
  std::uint64_t duplicates_rx_{0};
  // RFC 7252 deduplication: (peer, message id) -> cached response, replayed
  // for retransmitted CON requests within kDedupLifetime. Every entry is
  // inserted at the current time and only when its key is absent, so arrival
  // order is expiry order: dedup_order_ lists the entries oldest first and
  // expiry pops its front. A request costs O(log n) plus the entries it
  // expires, whatever the occupancy.
  DedupMap dedup_;
  std::deque<DedupMap::iterator> dedup_order_;
};

/// RFC 7252 retransmission parameters for confirmable requests. The paper's
/// section 8 warns that BLE connection intervals in the order of seconds
/// clash with exactly these defaults, triggering spurious retransmissions of
/// requests that were never lost.
struct CoapConParams {
  sim::Duration ack_timeout{sim::Duration::sec(2)};  // ACK_TIMEOUT
  double ack_random_factor{1.5};                     // ACK_RANDOM_FACTOR
  unsigned max_retransmit{4};                        // MAX_RETRANSMIT
};

/// Congestion control for confirmable requests: the app-layer tier of the
/// overload-survival stack. `kFixedRto` is plain RFC 7252 (static ACK_TIMEOUT
/// with binary backoff); `kCocoa` is CoCoA-style adaptive RTO (strong/weak
/// RTT estimators, variable backoff, RTO aging). `nstart` additionally caps
/// concurrent CON exchanges per destination (RFC 7252 NSTART); excess
/// requests wait in a FIFO dispatch queue.
struct CoapCcConfig {
  enum class Mode { kFixedRto, kCocoa };
  Mode mode{Mode::kFixedRto};
  unsigned nstart{0};  // 0 = unlimited concurrent CON exchanges
  /// Index into the dedicated RTO-jitter RNG stream family. The experiment
  /// assigns the producer's creation index so initial-RTO jitter draws never
  /// shift any sequentially allocated component stream.
  std::uint64_t rto_stream{0};
};

class CoapClient {
 public:
  /// Response callback with the measured round-trip time.
  using ResponseCb = std::function<void(const CoapMessage& response, sim::Duration rtt)>;
  /// Called when a confirmable request exhausted its retransmissions.
  using TimeoutCb = std::function<void()>;

  CoapClient(sim::Simulator& sim, net::IpStack& stack, std::uint16_t local_port);

  /// Sends a NON GET carrying `payload`; false when the stack dropped it
  /// locally. The request still counts as sent for PDR accounting either way
  /// (the paper counts requests handed to the network stack).
  bool get(const net::Ipv6Addr& dst, std::string_view path,
           std::vector<std::uint8_t> payload, ResponseCb cb);

  /// Sends a CON GET with RFC 7252 retransmission: the message is re-sent at
  /// exponentially backed-off timeouts until a response arrives or
  /// MAX_RETRANSMIT is exhausted.
  bool con_get(const net::Ipv6Addr& dst, std::string_view path,
               std::vector<std::uint8_t> payload, ResponseCb cb,
               TimeoutCb on_timeout = nullptr);

  void set_con_params(CoapConParams p) { con_params_ = p; }
  /// Installs the congestion-control config and re-seats the RTO jitter RNG
  /// on its dedicated stream (`cc.rto_stream`).
  void set_cc(CoapCcConfig cc);
  [[nodiscard]] const CoapCcConfig& cc() const { return cc_; }

  [[nodiscard]] std::uint64_t requests_sent() const { return requests_sent_; }
  [[nodiscard]] std::uint64_t responses_rx() const { return responses_rx_; }
  [[nodiscard]] std::uint64_t stale_responses() const { return stale_responses_; }
  /// CON retransmissions put on the wire (section 8's amplification metric).
  [[nodiscard]] std::uint64_t retransmissions() const { return retransmissions_; }
  [[nodiscard]] std::uint64_t con_timeouts() const { return con_timeouts_; }
  /// CON requests that waited in the NSTART dispatch queue before their
  /// first transmission.
  [[nodiscard]] std::uint64_t nstart_deferrals() const { return nstart_deferrals_; }
  /// Current CoCoA overall RTO estimate towards `dst` in seconds (the
  /// configured ACK_TIMEOUT before the first sample or in fixed mode).
  [[nodiscard]] double rto_estimate(const net::Ipv6Addr& dst) const;

  /// Drops pending requests older than `age` (bounds the token table).
  void expire_pending(sim::Duration age);

 private:
  struct Pending {
    sim::TimePoint sent;       // handed to the client (RTT + PDR reference)
    ResponseCb cb;
    // CON state (unused for NON requests).
    bool confirmable{false};
    std::vector<std::uint8_t> wire;  // encoded message for retransmission
    net::Ipv6Addr dst;
    unsigned attempts{0};
    sim::Duration timeout{};
    sim::Duration init_timeout{};  // first RTO (selects the CoCoA backoff factor)
    sim::TimePoint first_tx;       // dispatch time (CoCoA RTT samples)
    bool dispatched{false};        // false while waiting in the NSTART queue
    sim::EventId timer;
    TimeoutCb on_timeout;
  };

  /// CoCoA per-destination estimator state (all RTO terms in seconds).
  struct CocoaState {
    bool has_strong{false};
    double srtt_s{0.0};
    double rttvar_s{0.0};
    bool has_weak{false};
    double srtt_w{0.0};
    double rttvar_w{0.0};
    bool has_rto{false};
    double rto{0.0};             // overall estimate
    sim::TimePoint last_update;  // for RTO aging
  };

  /// NSTART bookkeeping per destination.
  struct DestState {
    unsigned outstanding{0};
    std::deque<std::uint64_t> queue;  // token ids awaiting dispatch (FIFO)
  };

  void on_datagram(const net::Ipv6Addr& src, std::uint16_t src_port, std::uint16_t dst_port,
                   std::vector<std::uint8_t> payload, sim::TimePoint at);
  void arm_retransmission(std::uint64_t token_id);
  void on_retransmit_timer(std::uint64_t token_id);
  /// First transmission of a prepared CON: draws the initial RTO, sends,
  /// arms the timer and charges the NSTART window. Returns the udp_send
  /// verdict (false: dropped locally; retransmission still runs).
  bool dispatch(std::uint64_t token_id);
  /// A CON exchange towards `dst` ended (response/timeout/expiry): releases
  /// its NSTART slot and dispatches the next queued request.
  void release_slot(const net::Ipv6Addr& dst);
  /// Initial RTO towards `dst`: ACK_TIMEOUT (fixed mode) or the aged CoCoA
  /// estimate, jittered by ACK_RANDOM_FACTOR from the dedicated stream.
  [[nodiscard]] sim::Duration initial_rto(const net::Ipv6Addr& dst);
  /// Feeds an RTT sample (seconds) into the CoCoA estimators.
  void cocoa_update(const net::Ipv6Addr& dst, double rtt_s, unsigned attempts);

  sim::Simulator& sim_;
  net::IpStack& stack_;
  std::uint16_t local_port_;
  CoapConParams con_params_;
  CoapCcConfig cc_;
  sim::Rng rng_;
  sim::Rng rto_rng_;
  std::uint64_t next_token_{1};
  std::uint16_t next_mid_{1};
  std::map<std::uint64_t, Pending> pending_;
  std::map<net::Ipv6Addr, CocoaState> cocoa_;
  std::map<net::Ipv6Addr, DestState> dests_;
  std::uint64_t requests_sent_{0};
  std::uint64_t responses_rx_{0};
  std::uint64_t stale_responses_{0};
  std::uint64_t retransmissions_{0};
  std::uint64_t con_timeouts_{0};
  std::uint64_t nstart_deferrals_{0};
};

}  // namespace mgap::app
