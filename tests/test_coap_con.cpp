// Unit tests: confirmable CoAP with RFC 7252 retransmission (the section 8
// extension) — timer backoff, server-side deduplication, timeout reporting.

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "app/coap_endpoint.hpp"
#include "check/property.hpp"
#include "helpers/pipe_netif.hpp"
#include "net/ipv6.hpp"
#include "net/sixlowpan.hpp"
#include "net/udp.hpp"
#include "sim/simulator.hpp"

namespace mgap::app {
namespace {

using testhelpers::PipeNet;

class CoapConTest : public ::testing::Test {
 protected:
  CoapConTest() : net_{sim_} {
    client_stack_ = std::make_unique<net::IpStack>(sim_, 1, net_.add(1));
    server_stack_ = std::make_unique<net::IpStack>(sim_, 2, net_.add(2));
    client_stack_->routes().add_host_route(net::Ipv6Addr::site(2), net::Ipv6Addr::site(2));
    server_stack_->routes().add_host_route(net::Ipv6Addr::site(1), net::Ipv6Addr::site(1));
    server_ = std::make_unique<CoapServer>(*server_stack_);
    server_->on_get("gap", [this](const CoapMessage&, const net::Ipv6Addr&) {
      ++handler_calls_;
      CoapMessage rsp;
      rsp.code = kCodeContent;
      return rsp;
    });
    client_ = std::make_unique<CoapClient>(sim_, *client_stack_, 40000);
  }

  void run_for(sim::Duration d) { sim_.run_until(sim_.now() + d); }

  sim::Simulator sim_{77};
  PipeNet net_;
  std::unique_ptr<net::IpStack> client_stack_;
  std::unique_ptr<net::IpStack> server_stack_;
  std::unique_ptr<CoapServer> server_;
  std::unique_ptr<CoapClient> client_;
  int handler_calls_{0};
};

TEST_F(CoapConTest, FastResponseNeedsNoRetransmission) {
  int responses = 0;
  ASSERT_TRUE(client_->con_get(net::Ipv6Addr::site(2), "gap", {},
                               [&](const CoapMessage& rsp, sim::Duration) {
                                 EXPECT_EQ(rsp.type, CoapType::kAck);
                                 ++responses;
                               }));
  run_for(sim::Duration::sec(10));
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(client_->retransmissions(), 0u);
  EXPECT_EQ(client_->con_timeouts(), 0u);
}

TEST_F(CoapConTest, SlowPathTriggersRetransmissionAndDedup) {
  // Break the link long enough for >= 1 retransmission, then restore it.
  net_.set_link_down(1, 2, true);
  int responses = 0;
  ASSERT_FALSE(client_->con_get(net::Ipv6Addr::site(2), "gap", {},
                                [&](const CoapMessage&, sim::Duration) { ++responses; }));
  run_for(sim::Duration::sec(7));  // first timeout (2-3 s) + backoff fires
  EXPECT_GE(client_->retransmissions(), 1u);
  net_.set_link_down(1, 2, false);
  run_for(sim::Duration::sec(30));
  EXPECT_EQ(responses, 1);
  // Handler executed exactly once even though several copies arrived.
  EXPECT_EQ(handler_calls_, 1);
}

TEST_F(CoapConTest, ExhaustedRetriesReportTimeout) {
  net_.set_link_down(1, 2, true);
  int timeouts = 0;
  int responses = 0;
  (void)client_->con_get(net::Ipv6Addr::site(2), "gap", {},
                         [&](const CoapMessage&, sim::Duration) { ++responses; },
                         [&] { ++timeouts; });
  // Worst case: 3 * (1 + 2 + 4 + 8 + 16) = 93 s until MAX_RETRANSMIT fires.
  run_for(sim::Duration::sec(120));
  EXPECT_EQ(responses, 0);
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(client_->con_timeouts(), 1u);
  EXPECT_EQ(client_->retransmissions(), 4u);  // MAX_RETRANSMIT
}

TEST_F(CoapConTest, DuplicateRepliesAreReplayedNotReexecuted) {
  // Two identical CON sends with distinct MIDs both execute; a retransmitted
  // copy of the same MID does not.
  int responses = 0;
  ASSERT_TRUE(client_->con_get(net::Ipv6Addr::site(2), "gap", {},
                               [&](const CoapMessage&, sim::Duration) { ++responses; }));
  ASSERT_TRUE(client_->con_get(net::Ipv6Addr::site(2), "gap", {},
                               [&](const CoapMessage&, sim::Duration) { ++responses; }));
  run_for(sim::Duration::sec(5));
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(handler_calls_, 2);
  EXPECT_EQ(server_->duplicates_rx(), 0u);
}

TEST_F(CoapConTest, InitialRtoJitterStaysInsideAckRandomFactor) {
  // RFC 7252: the first retransmission fires in [ACK_TIMEOUT,
  // ACK_TIMEOUT * ACK_RANDOM_FACTOR). The jitter draw comes from the
  // dedicated seeded RTO stream, so it is deterministic per (seed, stream).
  net_.set_link_down(1, 2, true);
  (void)client_->con_get(net::Ipv6Addr::site(2), "gap", {}, nullptr, nullptr);
  run_for(sim::Duration::ms(1999));
  EXPECT_EQ(client_->retransmissions(), 0u);  // never before ACK_TIMEOUT
  run_for(sim::Duration::ms(1002));           // past 2 s * 1.5
  EXPECT_EQ(client_->retransmissions(), 1u);
}

TEST_F(CoapConTest, NstartSerializesExchangesPerDestination) {
  CoapCcConfig cc;
  cc.nstart = 1;
  client_->set_cc(cc);
  int responses = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client_->con_get(net::Ipv6Addr::site(2), "gap", {},
                                 [&](const CoapMessage&, sim::Duration) { ++responses; }));
  }
  // Two of the three waited in the dispatch queue behind the NSTART window.
  EXPECT_EQ(client_->nstart_deferrals(), 2u);
  run_for(sim::Duration::sec(10));
  EXPECT_EQ(responses, 3);  // the queue drained as slots freed up
  EXPECT_EQ(handler_calls_, 3);
}

TEST_F(CoapConTest, NstartQueueDrainsOnTimeoutToo) {
  // A destination that never answers must not wedge the dispatch queue: the
  // exhausted exchange releases its slot to the next queued request.
  net_.set_link_down(1, 2, true);
  CoapConParams p;
  p.ack_timeout = sim::Duration::sec(1);
  p.ack_random_factor = 1.0;
  p.max_retransmit = 1;
  client_->set_con_params(p);
  CoapCcConfig cc;
  cc.nstart = 1;
  client_->set_cc(cc);
  int timeouts = 0;
  for (int i = 0; i < 2; ++i) {
    (void)client_->con_get(net::Ipv6Addr::site(2), "gap", {}, nullptr,
                           [&] { ++timeouts; });
  }
  EXPECT_EQ(client_->nstart_deferrals(), 1u);
  run_for(sim::Duration::sec(20));
  EXPECT_EQ(timeouts, 2);  // the second request got its turn and timed out too
}

TEST_F(CoapConTest, CocoaRtoAdaptsToMeasuredRtt) {
  CoapCcConfig cc;
  cc.mode = CoapCcConfig::Mode::kCocoa;
  client_->set_cc(cc);
  const net::Ipv6Addr dst = net::Ipv6Addr::site(2);
  EXPECT_DOUBLE_EQ(client_->rto_estimate(dst), 2.0);  // ACK_TIMEOUT before samples

  // The pipe link answers in ~4 ms; successive strong samples drag the
  // overall estimate down toward the 0.25 s CoCoA floor.
  int responses = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->con_get(dst, "gap", {},
                                 [&](const CoapMessage&, sim::Duration) { ++responses; }));
    run_for(sim::Duration::ms(500));
  }
  EXPECT_EQ(responses, 10);
  EXPECT_EQ(client_->retransmissions(), 0u);
  EXPECT_LT(client_->rto_estimate(dst), 1.0);
  EXPECT_GE(client_->rto_estimate(dst), 0.25);
}

TEST_F(CoapConTest, CocoaWeakSamplesKeepTheEstimateSane) {
  // Drop the link for one exchange so a retransmission produces a weak
  // sample, then restore it: the estimate must stay inside the CoCoA clamp
  // and recover from strong samples afterwards.
  CoapCcConfig cc;
  cc.mode = CoapCcConfig::Mode::kCocoa;
  client_->set_cc(cc);
  const net::Ipv6Addr dst = net::Ipv6Addr::site(2);

  net_.set_link_down(1, 2, true);
  int responses = 0;
  (void)client_->con_get(dst, "gap", {},
                         [&](const CoapMessage&, sim::Duration) { ++responses; });
  run_for(sim::Duration::sec(5));  // first RTO fires, retransmission also lost
  EXPECT_GE(client_->retransmissions(), 1u);
  net_.set_link_down(1, 2, false);
  run_for(sim::Duration::sec(30));
  EXPECT_EQ(responses, 1);  // delivered on a retransmitted attempt
  const double after_weak = client_->rto_estimate(dst);
  EXPECT_GE(after_weak, 0.25);
  EXPECT_LE(after_weak, 32.0);

  for (int i = 0; i < 10; ++i) {
    (void)client_->con_get(dst, "gap", {},
                           [&](const CoapMessage&, sim::Duration) { ++responses; });
    run_for(sim::Duration::ms(500));
  }
  EXPECT_EQ(responses, 11);
  EXPECT_LT(client_->rto_estimate(dst), after_weak);
}

TEST_F(CoapConTest, BackoffDoublesPerAttempt) {
  net_.set_link_down(1, 2, true);
  CoapConParams p;
  p.ack_timeout = sim::Duration::sec(2);
  p.ack_random_factor = 1.0;  // deterministic for the test
  p.max_retransmit = 3;
  client_->set_con_params(p);
  (void)client_->con_get(net::Ipv6Addr::site(2), "gap", {}, nullptr, nullptr);
  // Retransmissions at t = 2, 6, 14; timeout at t = 30.
  run_for(sim::Duration::ms(2100));
  EXPECT_EQ(client_->retransmissions(), 1u);
  run_for(sim::Duration::sec(4));  // t = 6.1
  EXPECT_EQ(client_->retransmissions(), 2u);
  run_for(sim::Duration::sec(8));  // t = 14.1
  EXPECT_EQ(client_->retransmissions(), 3u);
  run_for(sim::Duration::sec(16));  // t = 30.1
  EXPECT_EQ(client_->con_timeouts(), 1u);
}

TEST_F(CoapConTest, ExpirePendingDropsOnlyRequestsOlderThanAge) {
  // Replies take 2 ms (1 ms per direction). At t = 1.9 ms the first request
  // is past the 1.6 ms age and forgotten; the second, sent at 0.5 ms, is
  // kept and still matches its reply.
  int responses = 0;
  const auto count = [&](const CoapMessage&, sim::Duration) { ++responses; };
  ASSERT_TRUE(client_->get(net::Ipv6Addr::site(2), "gap", {}, count));
  run_for(sim::Duration::us(500));
  ASSERT_TRUE(client_->get(net::Ipv6Addr::site(2), "gap", {}, count));
  run_for(sim::Duration::us(1400));
  client_->expire_pending(sim::Duration::us(1600));
  run_for(sim::Duration::ms(10));
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(client_->responses_rx(), 1u);
  EXPECT_EQ(client_->stale_responses(), 1u);
}

// --- Server-side deduplication -------------------------------------------------

constexpr NodeId kServerNode = 100;

/// Handler reply for the n-th handler call: the payload carries n, so a
/// replayed reply is told apart from a re-executed one by its bytes. Every
/// third reply is long enough not to fit the server's inline reply storage.
CoapMessage numbered_reply(int n) {
  CoapMessage rsp;
  rsp.code = kCodeContent;
  rsp.payload.assign(n % 3 == 0 ? 24 : 2, 0x5A);
  rsp.payload[0] = static_cast<std::uint8_t>(n >> 8);
  rsp.payload[1] = static_cast<std::uint8_t>(n);
  return rsp;
}

/// A lone CoapServer whose stack sends into a capture list: requests are
/// injected as if from neighbour `peer`, replies are decoded back to CoAP
/// bytes.
class DedupServer final : public net::Netif {
 public:
  DedupServer() {
    stack_.routes().set_default(net::Ipv6Addr::link_local(1));
    server_.on_get("gap", [this](const CoapMessage&, const net::Ipv6Addr&) {
      return numbered_reply(++handler_calls_);
    });
  }

  bool send(NodeId /*next_hop*/, std::vector<std::uint8_t> frame) override {
    sent_.push_back(std::move(frame));
    return true;
  }
  [[nodiscard]] std::size_t mtu() const override { return 1280; }
  [[nodiscard]] bool neighbor_up(NodeId /*neighbor*/) const override { return true; }

  /// Delivers a GET for "gap" from `peer` at `at` (not before the previous
  /// request) and returns the CoAP reply the server sent back.
  std::vector<std::uint8_t> request(NodeId peer, std::uint16_t mid, sim::TimePoint at,
                                    CoapType type = CoapType::kCon, std::uint8_t token = 0) {
    sim_.run_until(at);
    CoapMessage req;
    req.type = type;
    req.code = kCodeGet;
    req.message_id = mid;
    req.token = {0, 0, 0, token};
    req.add_uri_path("gap");
    const net::Ipv6Addr from = net::Ipv6Addr::site(peer);
    const net::Ipv6Addr to = net::Ipv6Addr::site(kServerNode);
    const auto udp = net::udp_encode(from, to, 40000, kCoapPort, coap_encode(req));
    net::Ipv6Header h;
    h.payload_len = static_cast<std::uint16_t>(udp.size());
    h.src = from;
    h.dst = to;
    const std::size_t before = sent_.size();
    deliver_rx(peer,
               net::sixlo_encode(net::ipv6_encode(h, udp), net::CompressionMode::kUncompressed,
                                 peer, kServerNode),
               sim_.now());
    if (sent_.size() != before + 1) return {};
    const auto packet = net::sixlo_decode(sent_.back(), kServerNode, peer);
    if (!packet) return {};
    const auto rh = net::ipv6_decode(*packet);
    if (!rh) return {};
    const auto dg = net::udp_decode(rh->src, rh->dst, std::span{*packet}.subspan(40));
    return dg ? dg->payload : std::vector<std::uint8_t>{};
  }

  [[nodiscard]] const CoapServer& server() const { return server_; }
  [[nodiscard]] int handler_calls() const { return handler_calls_; }

 private:
  std::vector<std::vector<std::uint8_t>> sent_;
  sim::Simulator sim_{5};
  net::IpStack stack_{sim_, kServerNode, *this};
  CoapServer server_{stack_};
  int handler_calls_{0};
};

sim::TimePoint at_s(std::int64_t s) { return sim::TimePoint::origin() + sim::Duration::sec(s); }

static_assert(CoapServer::kDedupLifetime == sim::Duration::sec(60),
              "the overload fingerprints are recorded with a 60 s dedup lifetime");

TEST(CoapDedup, RetransmittedCopyIsReplayedByteForByte) {
  DedupServer d;
  const auto first = d.request(3, 7, at_s(1));
  ASSERT_FALSE(first.empty());
  const auto again = d.request(3, 7, at_s(4));
  EXPECT_EQ(again, first);
  EXPECT_EQ(d.handler_calls(), 1);
  EXPECT_EQ(d.server().requests_rx(), 1u);
  EXPECT_EQ(d.server().duplicates_rx(), 1u);
  EXPECT_EQ(d.server().responses_tx(), 2u);
}

TEST(CoapDedup, ExpiryIsStrictAtTheLifetime) {
  DedupServer d;
  const sim::TimePoint t0 = at_s(2);
  const auto first = d.request(3, 7, t0);
  // Exactly kDedupLifetime old: still replayed.
  EXPECT_EQ(d.request(3, 7, t0 + CoapServer::kDedupLifetime), first);
  EXPECT_EQ(d.handler_calls(), 1);
  // One nanosecond later the entry is gone and the handler runs again.
  const auto rerun =
      d.request(3, 7, t0 + CoapServer::kDedupLifetime + sim::Duration::ns(1));
  EXPECT_NE(rerun, first);
  EXPECT_EQ(d.handler_calls(), 2);
  EXPECT_EQ(d.server().duplicates_rx(), 1u);
}

TEST(CoapDedup, MidReusedAfterExpiryRunsTheHandler) {
  DedupServer d;
  const auto first = d.request(4, 9, at_s(0));
  const auto reused = d.request(4, 9, at_s(61));
  EXPECT_EQ(d.handler_calls(), 2);
  EXPECT_NE(reused, first);
  // The fresh exchange is cached in turn: its own retransmission replays it.
  EXPECT_EQ(d.request(4, 9, at_s(70)), reused);
  EXPECT_EQ(d.handler_calls(), 2);
  EXPECT_EQ(d.server().requests_rx(), 2u);
  EXPECT_EQ(d.server().duplicates_rx(), 1u);
}

TEST(CoapDedup, EntriesFromSeveralPeersExpireInArrivalOrder) {
  DedupServer d;
  const auto a = d.request(1, 1, at_s(0));
  const auto b = d.request(2, 1, at_s(10));
  const auto c = d.request(3, 1, at_s(20));
  const auto e = d.request(1, 2, at_s(30));
  ASSERT_EQ(d.handler_calls(), 4);
  // At t = 80 s the two oldest entries (t = 0 and 10 s) have expired; the
  // t = 20 s entry is exactly 60 s old and the t = 30 s one younger still.
  EXPECT_EQ(d.request(3, 1, at_s(80)), c);
  EXPECT_EQ(d.request(1, 2, at_s(80)), e);
  EXPECT_EQ(d.handler_calls(), 4);
  EXPECT_NE(d.request(2, 1, at_s(80)), b);
  EXPECT_NE(d.request(1, 1, at_s(80)), a);
  EXPECT_EQ(d.handler_calls(), 6);
  // A non-confirmable request bypasses the cache entirely.
  EXPECT_NE(d.request(3, 1, at_s(80), CoapType::kNon), c);
  EXPECT_EQ(d.handler_calls(), 7);
  EXPECT_EQ(d.server().duplicates_rx(), 2u);
}

/// Reference model: a dedup map swept in full on every CON request. The
/// server's arrival-order expiry must behave exactly like it.
class SweptDedupModel {
 public:
  std::vector<std::uint8_t> request(NodeId peer, std::uint16_t mid, sim::TimePoint at,
                                    CoapType type, std::uint8_t token) {
    const auto key = std::make_pair(peer, mid);
    if (type == CoapType::kCon) {
      std::erase_if(cache_, [at](const auto& kv) {
        return at - kv.second.second > CoapServer::kDedupLifetime;
      });
      const auto it = cache_.find(key);
      if (it != cache_.end()) {
        ++duplicates_;
        return it->second.first;
      }
    }
    CoapMessage rsp = numbered_reply(++handler_calls_);
    rsp.type = type == CoapType::kCon ? CoapType::kAck : CoapType::kNon;
    rsp.token = {0, 0, 0, token};
    rsp.message_id = mid;
    auto wire = coap_encode(rsp);
    if (type == CoapType::kCon) cache_[key] = {wire, at};
    return wire;
  }

  [[nodiscard]] int handler_calls() const { return handler_calls_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }

 private:
  std::map<std::pair<NodeId, std::uint16_t>,
           std::pair<std::vector<std::uint8_t>, sim::TimePoint>>
      cache_;
  int handler_calls_{0};
  std::uint64_t duplicates_{0};
};

TEST(CoapDedup, ArrivalOrderExpiryMatchesTheFullSweep) {
  // Gaps cluster on the lifetime boundary so sums of them land exactly on
  // it, on either side of it and far past it.
  const std::vector<sim::Duration> gaps = {
      sim::Duration::ns(0),  sim::Duration::ns(1),   sim::Duration::sec(1),
      sim::Duration::sec(15), sim::Duration::sec(30), sim::Duration::sec(59),
      CoapServer::kDedupLifetime, CoapServer::kDedupLifetime + sim::Duration::ns(1),
      sim::Duration::sec(90)};
  const auto result = check::check_property("coap-dedup-vs-swept-map", [&](check::Gen& g) {
    DedupServer d;
    SweptDedupModel model;
    sim::TimePoint at = sim::TimePoint::origin();
    const std::size_t steps = g.size(80);
    for (std::size_t i = 0; i < steps; ++i) {
      at = at + (g.boolean(0.8) ? g.pick(gaps) : sim::Duration::ms(g.i64(0, 70'000)));
      const auto peer = static_cast<NodeId>(g.u64(1, 4));
      const auto mid = static_cast<std::uint16_t>(g.u64(0, 5));
      const CoapType type = g.boolean(0.15) ? CoapType::kNon : CoapType::kCon;
      const auto token = static_cast<std::uint8_t>(g.u64(0, 3));
      const auto got = d.request(peer, mid, at, type, token);
      const auto want = model.request(peer, mid, at, type, token);
      PROP_ASSERT(got == want, "reply bytes differ at step " + std::to_string(i));
      PROP_ASSERT(d.handler_calls() == model.handler_calls(),
                  "handler calls differ at step " + std::to_string(i));
      PROP_ASSERT(d.server().duplicates_rx() == model.duplicates(),
                  "duplicates_rx differs at step " + std::to_string(i));
    }
    PROP_ASSERT(d.server().requests_rx() == static_cast<std::uint64_t>(model.handler_calls()),
                "requests_rx must count handler runs");
    PROP_ASSERT(d.server().responses_tx() == steps, "every request must be answered");
  });
  EXPECT_TRUE(result.ok) << result.report();
}

}  // namespace
}  // namespace mgap::app
