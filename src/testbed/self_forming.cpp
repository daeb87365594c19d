#include "testbed/self_forming.hpp"

#include "topo/channel.hpp"
#include "topo/spatial_index.hpp"

namespace mgap::testbed {

SelfFormingNetwork::SelfFormingNetwork(SelfFormingConfig config)
    : config_{config}, sim_{config_.seed}, metrics_{config_.metrics_bucket} {
  if (config_.topo.enabled()) {
    // The placement dictates the node count; the DODAG root stays the
    // generated world's consumer (lowest id) unless overridden.
    geo_ = std::make_unique<topo::GeneratedWorld>(
        topo::generate_world(config_.topo, config_.seed));
    config_.num_nodes = static_cast<unsigned>(geo_->placement->ids.size());
  }
  phy::ChannelModel cm{config_.base_per};
  if (config_.jam_channel_22) cm.jam(22);
  world_ = std::make_unique<ble::BleWorld>(sim_, cm);
  if (config_.exclude_channel_22) {
    ble::ChannelMap map = ble::ChannelMap::all();
    map.exclude(22);
    world_->set_default_channel_map(map);
  }
  if (geo_) {
    world_->set_link_per(topo::make_geometric_link_per(geo_->placement, config_.topo));
    // Discovery listens at the full radio range (geo_->neighbors only spans
    // the planning range): dynconn may adopt any physically hearable peer.
    world_->set_neighbor_table(
        geo_->index->neighbor_tables(topo::max_radio_range(config_.topo)));
  }

  sim::Rng drift_rng = sim_.make_rng();
  for (NodeId id = 1; id <= config_.num_nodes; ++id) {
    const double drift =
        drift_rng.uniform_real(-config_.drift_ppm_range, config_.drift_ppm_range);
    ble::Controller& ctrl = world_->add_node(id, drift);
    const bool is_root = id == config_.root;

    Node node;
    node.netif = std::make_unique<core::NimbleNetif>(ctrl);
    node.stack = std::make_unique<net::IpStack>(sim_, id, *node.netif);
    node.dynconn = std::make_unique<core::Dynconn>(*node.netif, config_.dynconn, is_root);

    // RPL sees the BLE link set through the controller's live connections.
    ble::Controller* ctrl_ptr = &ctrl;
    node.rpl = std::make_unique<net::Rpl>(
        sim_, *node.stack,
        [ctrl_ptr] {
          std::vector<NodeId> out;
          for (ble::Connection* c : ctrl_ptr->connections()) {
            out.push_back(c->peer_of(*ctrl_ptr).id());
          }
          return out;
        },
        config_.rpl);

    nodes_.emplace(id, std::move(node));
  }

  // Second pass: wire the coupling callbacks (BLE link lifecycle -> RPL
  // neighbor set; RPL rank -> dynconn's advertised metric) now that node
  // storage is stable.
  for (auto& [node_id, node] : nodes_) {
    const NodeId id = node_id;
    net::Rpl* rpl_ptr = node.rpl.get();
    core::Dynconn* dyn_ptr = node.dynconn.get();
    ble::Controller* ctrl_ptr = &node.netif->controller();
    node.netif->add_link_listener(
        [rpl_ptr, ctrl_ptr](ble::Connection& conn, bool up, ble::DisconnectReason) {
          const NodeId peer = conn.peer_of(*ctrl_ptr).id();
          if (up) {
            rpl_ptr->neighbor_up(peer);
          } else {
            rpl_ptr->neighbor_down(peer);
          }
        });
    node.rpl->set_rank_changed([this, dyn_ptr](std::uint16_t rank) {
      dyn_ptr->set_advertised_metric(rank);
      check_formation();
    });

    if (id == config_.root) {
      consumer_ = std::make_unique<Consumer>(*node.stack);
      node.rpl->start_as_root();
    } else {
      node.rpl->start();
      Producer::Config pc;
      pc.consumer = net::Ipv6Addr::site(config_.root);
      pc.interval = config_.producer_interval;
      pc.jitter = config_.producer_jitter;
      pc.payload_len = config_.payload_len;
      pc.start_delay = config_.producer_start_delay;
      node.producer = std::make_unique<Producer>(sim_, *node.stack, pc, metrics_);
      node.producer->start();
    }
    node.dynconn->start();
  }
}

SelfFormingNetwork::~SelfFormingNetwork() = default;

void SelfFormingNetwork::check_formation() {
  if (formation_time_ || !all_joined()) return;
  formation_time_ = sim_.now();
}

bool SelfFormingNetwork::all_joined() const {
  for (const auto& [id, node] : nodes_) {
    if (!node.rpl->joined()) return false;
  }
  return true;
}

std::map<NodeId, unsigned> SelfFormingNetwork::depths() const {
  std::map<NodeId, unsigned> out;
  for (const auto& [id, node] : nodes_) {
    const std::uint16_t rank = node.rpl->rank();
    out[id] = rank == net::kRplInfiniteRank
                  ? 0xFFFF
                  : static_cast<unsigned>(rank / net::kRplMinHopRankIncrease - 1);
  }
  return out;
}

std::uint64_t SelfFormingNetwork::total_parent_changes() const {
  std::uint64_t total = 0;
  for (const auto& [id, node] : nodes_) total += node.rpl->stats().parent_changes;
  return total;
}

void SelfFormingNetwork::run() {
  sim_.run_until(sim::TimePoint::origin() + config_.duration);
  for (auto& [id, node] : nodes_) {
    if (node.producer) node.producer->stop();
  }
  sim_.run_until(sim_.now() + sim::Duration::sec(10));
}

void SelfFormingNetwork::run_until(sim::TimePoint t) { sim_.run_until(t); }

}  // namespace mgap::testbed
