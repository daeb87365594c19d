// Layer drivers: each times one layer's public calls in isolation, fed with
// inputs shaped like the workload under test, and checks what it gets back.

#include <algorithm>
#include <stdexcept>

#include "app/coap.hpp"
#include "app/coap_endpoint.hpp"
#include "ble/channel_selection.hpp"
#include "ble/radio_scheduler.hpp"
#include "bench.hpp"
#include "net/ip_stack.hpp"
#include "net/ipv6.hpp"
#include "net/udp.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "topo/world.hpp"

namespace mgbench {

using namespace mgap;

namespace {

constexpr int kBatches = 7;
constexpr NodeId kConsumer = 1;
constexpr std::size_t kProducers = 14;  // tree15: every node but the consumer

/// Keeps results observable so the timed loops are not optimized away.
volatile std::uint64_t g_sink = 0;

/// Median over kBatches runs of `batch`, divided by the operations per batch.
template <typename F>
double per_op(std::size_t ops, F&& batch) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    batch();
    samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(ops));
  }
  return median(std::move(samples));
}

/// A loopback link: frames the stack sends are counted and dropped, frames
/// the driver injects arrive as if from the given neighbour.
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

app::CoapMessage request(std::size_t payload_len, std::uint32_t token, std::uint16_t mid) {
  app::CoapMessage req;
  req.type = app::CoapType::kCon;
  req.code = app::kCodeGet;
  req.message_id = mid;
  req.token = {static_cast<std::uint8_t>(token >> 24), static_cast<std::uint8_t>(token >> 16),
               static_cast<std::uint8_t>(token >> 8), static_cast<std::uint8_t>(token)};
  req.add_uri_path("gap");
  req.payload.assign(payload_len, 0xA5);
  return req;
}

std::vector<std::uint8_t> ip_packet(NodeId src, const app::CoapMessage& msg) {
  const std::vector<std::uint8_t> coap = app::coap_encode(msg);
  const net::Ipv6Addr from = net::Ipv6Addr::site(src);
  const net::Ipv6Addr to = net::Ipv6Addr::site(kConsumer);
  const std::vector<std::uint8_t> udp =
      net::udp_encode(from, to, static_cast<std::uint16_t>(49152 + src), app::kCoapPort, coap);
  net::Ipv6Header h;
  h.payload_len = static_cast<std::uint16_t>(udp.size());
  h.src = from;
  h.dst = to;
  return net::ipv6_encode(h, udp);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double drive_event_queue(std::size_t live, std::uint64_t seed) {
  // Live events spread over one connection interval; each popped event is
  // rescheduled one randomized interval later, like a connection event.
  sim::Rng rng{seed, 0xE0E0};
  sim::EventQueue q;
  for (std::size_t i = 0; i < std::max<std::size_t>(live, 1); ++i) {
    q.schedule(sim::TimePoint::from_ns(rng.uniform_int(0, 75'000'000)), [] {});
  }
  constexpr std::size_t kOps = 200'000;
  return per_op(kOps, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto fired = q.pop();
      q.schedule(fired.at + sim::Duration::ns(rng.uniform_int(65'000'000, 85'000'000)), [] {});
    }
  });
}

double drive_csa2(std::uint64_t seed) {
  ble::ChannelMap map = ble::ChannelMap::all();
  map.exclude(22);  // the workloads' channel map (exclude_channel_22)
  sim::Rng rng{seed, 0xC5A2};
  std::vector<ble::Csa2> csas;
  for (int i = 0; i < 16; ++i) csas.emplace_back(static_cast<std::uint32_t>(rng.next_u64()));
  constexpr std::uint16_t kCounters = 4096;
  return per_op(csas.size() * kCounters, [&] {
    std::uint64_t acc = 0;
    for (const ble::Csa2& csa : csas) {
      for (std::uint16_t c = 0; c < kCounters; ++c) acc += csa.channel(c, map);
    }
    g_sink = g_sink + acc;
  });
}

double drive_try_claim(std::size_t owners, sim::Duration interval_lo, sim::Duration interval_hi,
                       std::uint64_t seed) {
  // Connection-event claims of `owners` connections sharing one radio, in
  // time order. Each connection releases its previous claim before claiming
  // the next event's slot, as ble::Connection does.
  sim::Rng rng{seed, 0xC1A1};
  const sim::Duration slot = sim::Duration::ms_f(1.25);
  std::vector<sim::Duration> interval(std::max<std::size_t>(owners, 1));
  std::vector<sim::TimePoint> next(interval.size());
  for (std::size_t o = 0; o < interval.size(); ++o) {
    interval[o] = rng.uniform_duration(interval_lo, interval_hi);
    next[o] = sim::TimePoint::origin() + rng.uniform_duration(sim::Duration{}, interval[o]);
  }
  struct Claim {
    sim::TimePoint start;
    std::uint64_t owner;
  };
  std::vector<Claim> claims(100'000);
  for (Claim& c : claims) {
    const auto o = static_cast<std::size_t>(std::min_element(next.begin(), next.end()) -
                                            next.begin());
    c = {next[o], o + 1};
    next[o] += interval[o];
  }
  return per_op(claims.size(), [&] {
    ble::RadioScheduler sched;
    for (const Claim& c : claims) {
      sched.release(c.owner);
      (void)sched.try_claim(c.start, c.start + slot, c.owner);
    }
    g_sink = g_sink + sched.granted();
  });
}

std::vector<std::uint8_t> request_packet(std::size_t payload_len) {
  return ip_packet(2, request(payload_len, 0x01020304, 1));
}

double drive_sixlo(const std::vector<std::uint8_t>& packet, net::CompressionMode mode) {
  constexpr NodeId kSrc = 2;
  const auto decoded = net::sixlo_decode(net::sixlo_encode(packet, mode, kSrc, kConsumer), kSrc,
                                         kConsumer);
  if (!decoded || *decoded != packet) throw std::runtime_error{"sixlo driver: round trip differs"};
  constexpr std::size_t kOps = 100'000;
  return per_op(kOps, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const auto frame = net::sixlo_encode(packet, mode, kSrc, kConsumer);
      acc += net::sixlo_decode(frame, kSrc, kConsumer)->size();
    }
    g_sink = g_sink + acc;
  });
}

double drive_coap_codec(std::size_t payload_len) {
  const app::CoapMessage msg = request(payload_len, 0x01020304, 1);
  const auto decoded = app::coap_decode(app::coap_encode(msg));
  if (!decoded || decoded->payload != msg.payload || decoded->uri_path() != "gap") {
    throw std::runtime_error{"coap codec driver: round trip differs"};
  }
  constexpr std::size_t kOps = 100'000;
  return per_op(kOps, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      acc += app::coap_decode(app::coap_encode(msg))->payload.size();
    }
    g_sink = g_sink + acc;
  });
}

double drive_coap_server(std::size_t occupancy, std::size_t payload_len,
                         net::CompressionMode mode) {
  sim::Simulator simu{1};
  LoopNetif netif;
  net::IpStackConfig ic;
  ic.compression = mode;
  net::IpStack stack{simu, kConsumer, netif, ic};
  stack.routes().set_default(net::Ipv6Addr::link_local(2));
  app::CoapServer server{stack};
  server.on_get("gap", [](const app::CoapMessage&, const net::Ipv6Addr&) {
    app::CoapMessage rsp;
    rsp.code = app::kCodeContent;
    return rsp;
  });

  // Request i comes from producer 2 + i % 14 with message id i / 14, so every
  // (peer, message id) dedup key is distinct.
  const std::size_t per_batch = occupancy > 0 ? 50 : 2000;
  const std::size_t total = occupancy + kBatches * per_batch;
  std::vector<std::pair<NodeId, std::vector<std::uint8_t>>> frames;
  frames.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const auto src = static_cast<NodeId>(2 + i % kProducers);
    const auto mid = static_cast<std::uint16_t>(i / kProducers);
    frames.emplace_back(src, net::sixlo_encode(
                                 ip_packet(src, request(payload_len,
                                                        static_cast<std::uint32_t>(i), mid)),
                                 mode, src, kConsumer));
  }
  // Loaded cache: the first `occupancy` requests land within one 60 s dedup
  // lifetime, the timed ones right after, so no entry expires. Empty cache:
  // timed requests 61 s apart, so each expires the one before.
  const auto at = [occupancy](std::size_t index) {
    const auto i = static_cast<std::int64_t>(index);
    if (occupancy == 0) return sim::TimePoint::origin() + sim::Duration::sec(61) * i;
    if (index < occupancy) {
      return sim::TimePoint::origin() +
             sim::Duration::sec(50) * i / static_cast<std::int64_t>(occupancy);
    }
    return sim::TimePoint::origin() + sim::Duration::sec(55) + sim::Duration::us(1) * i;
  };
  std::size_t next = 0;
  for (; next < occupancy; ++next) {
    netif.inject(frames[next].first, std::move(frames[next].second), at(next));
  }
  const double us = per_op(per_batch, [&] {
    for (std::size_t i = 0; i < per_batch; ++i, ++next) {
      netif.inject(frames[next].first, std::move(frames[next].second), at(next));
    }
  }) * 1e-3;
  if (server.requests_rx() != total || netif.sent() != total) {
    throw std::runtime_error{"coap server driver: requests went unanswered"};
  }
  return us;
}

double drive_generate_world(std::uint64_t seed, SpanLog& spans) {
  const testbed::ExperimentConfig cfg = workload_spec(Workload::kRgg3kIdle, seed).base;
  std::vector<double> samples;
  for (int i = 0; i < 3; ++i) {
    const int span = spans.begin("topo.generate_world");
    const topo::GeneratedWorld world = topo::generate_world(cfg.topo, seed);
    spans.end(span);
    g_sink = g_sink + world.parent.size();
    samples.push_back(spans.seconds(span));
  }
  return median(std::move(samples));
}

}  // namespace mgbench
