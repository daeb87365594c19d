// Unit tests: the static experiment-description format (Appendix A.3).

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"
#include "check/property.hpp"
#include "testbed/config_file.hpp"

namespace mgap::testbed {
namespace {

TEST(ParseDuration, Units) {
  EXPECT_EQ(sim::parse_duration("150us"), sim::Duration::us(150));
  EXPECT_EQ(sim::parse_duration("75ms"), sim::Duration::ms(75));
  EXPECT_EQ(sim::parse_duration("1.25ms"), sim::Duration::us(1250));
  EXPECT_EQ(sim::parse_duration("2s"), sim::Duration::sec(2));
  EXPECT_EQ(sim::parse_duration("30m"), sim::Duration::minutes(30));
  EXPECT_EQ(sim::parse_duration("24h"), sim::Duration::hours(24));
  EXPECT_EQ(sim::parse_duration(" 10ms "), sim::Duration::ms(10));
}

TEST(ParseDuration, RejectsGarbage) {
  EXPECT_FALSE(sim::parse_duration("").has_value());
  EXPECT_FALSE(sim::parse_duration("ms").has_value());
  EXPECT_FALSE(sim::parse_duration("10").has_value());
  EXPECT_FALSE(sim::parse_duration("10xs").has_value());
  EXPECT_FALSE(sim::parse_duration("ten ms").has_value());
}

TEST(ConfigFile, ParsesFullDescription) {
  const auto cfg = parse_experiment_config(R"(
# a comment
radio = ble
topology = line15
duration = 2h
producer_interval = 5s       # trailing comment
producer_jitter = 2.5s
conn_interval = 100ms
supervision_timeout = 4s
payload_len = 39
seed = 7
base_per = 0.02
drift_ppm_range = 3
jam_channel_22 = false
exclude_channel_22 = false
adaptive_channel_map = true
confirmable_coap = true
compression = iphc
metrics_bucket = 1m
)");
  EXPECT_EQ(cfg.radio, ExperimentConfig::Radio::kBle);
  EXPECT_EQ(cfg.topology.name, "line");
  EXPECT_EQ(cfg.duration, sim::Duration::hours(2));
  EXPECT_EQ(cfg.producer_interval, sim::Duration::sec(5));
  EXPECT_EQ(cfg.producer_jitter, sim::Duration::ms(2500));
  EXPECT_FALSE(cfg.policy.is_randomized());
  EXPECT_EQ(cfg.policy.target(), sim::Duration::ms(100));
  EXPECT_EQ(cfg.supervision_timeout, sim::Duration::sec(4));
  EXPECT_EQ(cfg.seed, 7u);
  EXPECT_DOUBLE_EQ(cfg.base_per, 0.02);
  EXPECT_DOUBLE_EQ(cfg.drift_ppm_range, 3.0);
  EXPECT_FALSE(cfg.jam_channel_22);
  EXPECT_FALSE(cfg.exclude_channel_22);
  EXPECT_TRUE(cfg.adaptive_channel_map);
  EXPECT_TRUE(cfg.confirmable_coap);
  EXPECT_EQ(cfg.compression, net::CompressionMode::kIphc);
  EXPECT_EQ(cfg.metrics_bucket, sim::Duration::minutes(1));
}

TEST(ConfigFile, RandomizedWindowSyntax) {
  const auto a = parse_experiment_config("conn_interval = 65ms:85ms\n");
  ASSERT_TRUE(a.policy.is_randomized());
  EXPECT_EQ(a.policy.lo(), sim::Duration::ms(65));
  EXPECT_EQ(a.policy.hi(), sim::Duration::ms(85));
  // Shorthand: the unit only on the upper bound.
  const auto b = parse_experiment_config("conn_interval = 490:510ms\n");
  ASSERT_TRUE(b.policy.is_randomized());
  EXPECT_EQ(b.policy.lo(), sim::Duration::ms(490));
  EXPECT_EQ(b.policy.hi(), sim::Duration::ms(510));
}

TEST(ConfigFile, StarTopology) {
  const auto cfg = parse_experiment_config("topology = star8\n");
  EXPECT_EQ(cfg.topology.name, "star");
  EXPECT_EQ(cfg.topology.nodes.size(), 8u);
}

/// Asserts that parsing `line` fails with exactly `message` — the rejection
/// paths are part of the config contract, not just "some exception".
void expect_config_error(const std::string& line, const std::string& message) {
  try {
    (void)parse_experiment_config(line + "\n");
    FAIL() << "expected '" << line << "' to be rejected";
  } catch (const std::runtime_error& err) {
    EXPECT_EQ(err.what(), message) << "for: " << line;
  }
}

TEST(ConfigFile, RejectsUnknownKeyAndBadValues) {
  EXPECT_THROW((void)parse_experiment_config("connn_interval = 75ms\n"),
               std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("radio = zigbee\n"), std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("duration = soon\n"), std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("just a line\n"), std::runtime_error);
  EXPECT_THROW((void)parse_experiment_config("jam_channel_22 = maybe\n"),
               std::runtime_error);
  expect_config_error("sim.threads = 2", "config: unknown key 'sim.threads'");
  expect_config_error("sim.window = 250us", "config: unknown key 'sim.window'");
  // Values that used to crash or silently corrupt a run.
  expect_config_error("metrics_bucket = 0s", "config: metrics_bucket must be >= 1s");
  expect_config_error("duration = -5s", "config: bad duration");
  expect_config_error("supervision_timeout = -1s", "config: bad supervision_timeout");
  expect_config_error("payload_len = -5", "config: bad payload_len");
  expect_config_error("payload_len = 2.7", "config: bad payload_len");
  expect_config_error("seed = -1", "config: bad seed");
  expect_config_error("seed = 1e30", "config: bad seed");
  expect_config_error("topo.seed = -3", "config: bad topo.seed");
  expect_config_error("topo.nodes = 50.7", "config: bad topo.nodes");
  expect_config_error("topo.max_degree = 2.5", "config: bad topo.max_degree");
  expect_config_error("conn_interval = 50:10ms", "config: bad conn_interval window");
  expect_config_error("duration = 9999999999h",
                      "config: duration exceeds the int64 nanosecond range");
}

TEST(ConfigFile, DefaultsMatchExperimentDefaults) {
  const auto cfg = parse_experiment_config("");
  const ExperimentConfig ref;
  EXPECT_EQ(cfg.duration, ref.duration);
  EXPECT_EQ(cfg.producer_interval, ref.producer_interval);
  EXPECT_EQ(cfg.seed, ref.seed);
}

TEST(ConfigFile, RenderParsesBackIdentically) {
  ExperimentConfig cfg;
  cfg.policy = core::IntervalPolicy::randomized(sim::Duration::ms(65),
                                                sim::Duration::ms(85));
  cfg.duration = sim::Duration::hours(24);
  cfg.confirmable_coap = true;
  cfg.seed = 42;
  const auto round = parse_experiment_config(render_experiment_config(cfg));
  EXPECT_EQ(round.duration, cfg.duration);
  EXPECT_TRUE(round.policy.is_randomized());
  EXPECT_EQ(round.policy.lo(), cfg.policy.lo());
  EXPECT_EQ(round.policy.hi(), cfg.policy.hi());
  EXPECT_EQ(round.confirmable_coap, true);
  EXPECT_EQ(round.seed, 42u);
}

TEST(ConfigFile, FlowAndCcKeysParse) {
  const auto cfg = parse_experiment_config(R"(
flow.l2cap_credits = deferred
flow.initial_credits = 12
flow.credit_batch = 4
flow.txq_frames = 16
flow.backoff = true
flow.backoff_base = 10ms
flow.backoff_max = 320ms
flow.backoff_jitter = 5ms
flow.breaker = true
flow.breaker_threshold = 4
flow.breaker_open = 250ms
flow.breaker_probes = 3
flow.congest_on_pct = 80
flow.congest_off_pct = 40
cc.mode = cocoa
cc.nstart = 2
)");
  EXPECT_TRUE(cfg.l2cap_deferred_credits);
  EXPECT_EQ(cfg.l2cap_initial_credits, 12u);
  EXPECT_EQ(cfg.l2cap_credit_batch, 4u);
  EXPECT_EQ(cfg.flow.txq_frames, 16u);
  EXPECT_TRUE(cfg.flow.backoff);
  EXPECT_EQ(cfg.flow.backoff_base, sim::Duration::ms(10));
  EXPECT_EQ(cfg.flow.backoff_max, sim::Duration::ms(320));
  EXPECT_EQ(cfg.flow.backoff_jitter, sim::Duration::ms(5));
  EXPECT_TRUE(cfg.flow.breaker);
  EXPECT_EQ(cfg.flow.breaker_threshold, 4u);
  EXPECT_EQ(cfg.flow.breaker_open, sim::Duration::ms(250));
  EXPECT_EQ(cfg.flow.breaker_probes, 3u);
  EXPECT_EQ(cfg.flow.congest_on_pct, 80u);
  EXPECT_EQ(cfg.flow.congest_off_pct, 40u);
  EXPECT_EQ(cfg.cc.mode, app::CoapCcConfig::Mode::kCocoa);
  EXPECT_EQ(cfg.cc.nstart, 2u);
}

TEST(ConfigFile, FlowPresetsExpandToLayerSets) {
  const auto off = parse_experiment_config("flow.preset = off\n");
  EXPECT_FALSE(off.l2cap_deferred_credits);
  EXPECT_FALSE(off.flow.any());
  EXPECT_EQ(off.cc.mode, app::CoapCcConfig::Mode::kFixedRto);

  const auto link = parse_experiment_config("flow.preset = link\n");
  EXPECT_TRUE(link.l2cap_deferred_credits);
  EXPECT_FALSE(link.flow.any());

  const auto netif = parse_experiment_config("flow.preset = netif\n");
  EXPECT_EQ(netif.flow.txq_frames, 16u);
  EXPECT_TRUE(netif.flow.backoff);
  EXPECT_TRUE(netif.flow.breaker);
  EXPECT_FALSE(netif.l2cap_deferred_credits);

  const auto app = parse_experiment_config("flow.preset = app\n");
  EXPECT_EQ(app.cc.mode, app::CoapCcConfig::Mode::kCocoa);
  EXPECT_EQ(app.cc.nstart, 16u);

  const auto all = parse_experiment_config("flow.preset = all\n");
  EXPECT_TRUE(all.l2cap_deferred_credits);
  EXPECT_TRUE(all.flow.any());
  EXPECT_EQ(all.cc.mode, app::CoapCcConfig::Mode::kCocoa);
}

TEST(ConfigFile, FlowKeyValidationIsStrictAndDeterministic) {
  const auto expect_msg = [](const char* text, const char* needle) {
    try {
      (void)parse_experiment_config(text);
      FAIL() << "expected throw for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << "got: " << e.what();
    }
  };
  expect_msg("flow.preset = everything\n",
             "config: unknown flow.preset 'everything' (off|link|netif|app|all)");
  expect_msg("flow.l2cap_credits = batched\n", "flow.l2cap_credits");
  expect_msg("flow.initial_credits = 0\n",
             "config: flow.initial_credits out of range [1, 65535]");
  expect_msg("flow.initial_credits = 1.5\n", "config: bad flow.initial_credits");
  expect_msg("flow.initial_credits = -3\n", "config: bad flow.initial_credits");
  expect_msg("flow.txq_frames = banana\n", "config: bad flow.txq_frames");
  expect_msg("flow.backoff = sometimes\n", "flow.backoff");
  expect_msg("flow.backoff_base = fast\n", "flow.backoff_base");
  expect_msg("flow.breaker_threshold = 0\n", "out of range");
  expect_msg("flow.congest_on_pct = 0\n",
             "config: flow.congest_on_pct out of range [1, 100]");
  expect_msg("flow.congest_off_pct = 101\n", "out of range");
  expect_msg("flow.congest_on_pct = 40\nflow.congest_off_pct = 60\n",
             "config: flow.congest_off_pct must not exceed flow.congest_on_pct");
  expect_msg("flow.backoff_base = 2s\nflow.backoff_max = 1s\n",
             "config: flow.backoff_base must not exceed flow.backoff_max");
  expect_msg("cc.mode = vegas\n", "cc.mode");
  expect_msg("cc.nstart = 65537\n", "out of range");
}

TEST(ConfigFile, FlowKeysRenderAndParseBack) {
  ExperimentConfig cfg;
  cfg.l2cap_deferred_credits = true;
  cfg.l2cap_credit_batch = 4;
  cfg.flow.txq_frames = 8;
  cfg.flow.backoff = true;
  cfg.flow.backoff_base = sim::Duration::ms(15);
  cfg.flow.breaker = true;
  cfg.flow.breaker_threshold = 5;
  cfg.cc.mode = app::CoapCcConfig::Mode::kCocoa;
  cfg.cc.nstart = 1;
  const std::string text = render_experiment_config(cfg);
  const auto round = parse_experiment_config(text);
  EXPECT_TRUE(round.l2cap_deferred_credits);
  EXPECT_EQ(round.l2cap_credit_batch, 4u);
  EXPECT_EQ(round.flow.txq_frames, 8u);
  EXPECT_TRUE(round.flow.backoff);
  EXPECT_EQ(round.flow.backoff_base, sim::Duration::ms(15));
  EXPECT_TRUE(round.flow.breaker);
  EXPECT_EQ(round.flow.breaker_threshold, 5u);
  EXPECT_EQ(round.cc.mode, app::CoapCcConfig::Mode::kCocoa);
  EXPECT_EQ(round.cc.nstart, 1u);
  // Defaults stay unrendered so legacy configs remain byte-stable.
  const std::string defaults = render_experiment_config(ExperimentConfig{});
  EXPECT_EQ(defaults.find("flow."), std::string::npos);
  EXPECT_EQ(defaults.find("cc."), std::string::npos);
}

TEST(ConfigFile, ShippedSampleConfigsParse) {
  const std::filesystem::path dir =
      std::filesystem::path{MGAP_SOURCE_DIR} / "examples" / "experiments";
  std::size_t confs = 0;
  std::size_t campaigns = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::filesystem::path& path = entry.path();
    SCOPED_TRACE(path.string());
    if (path.extension() == ".conf") {
      const std::string rendered =
          render_experiment_config(load_experiment_config(path.string()));
      EXPECT_EQ(render_experiment_config(parse_experiment_config(rendered)), rendered);
      ++confs;
    } else if (path.extension() == ".campaign") {
      const campaign::CampaignSpec spec = campaign::load_campaign_spec(path.string());
      EXPECT_FALSE(campaign::expand_grid(spec).empty());
      ++campaigns;
    }
  }
  EXPECT_GE(confs, 4u);
  EXPECT_GE(campaigns, 7u);
}

// --- the key table round-trips ----------------------------------------------

/// Sample values per table key, each written in its rendered (canonical)
/// form. Keys that render only off their default list only off-default
/// values, so every drawn key must show up verbatim in the render.
const std::map<std::string_view, std::vector<std::string_view>>& samples() {
  static const std::map<std::string_view, std::vector<std::string_view>> table = {
      {"radio", {"ble", "ieee802154"}},
      {"link.backend", {"mesh", "adv"}},
      {"topology", {"tree15", "line15", "star8"}},
      {"topo.generator", {"grid", "jitter_grid", "rgg", "floorplan"}},
      {"topo.nodes", {"2", "50"}},
      {"topo.area", {"25", "12.5"}},
      {"topo.density", {"3", "8.123456789"}},
      {"topo.range", {"10", "7.25"}},
      {"topo.max_degree", {"0", "2", "12"}},
      {"topo.grid_jitter", {"0", "0.55"}},
      {"topo.rooms", {"4x3", "1x1"}},
      {"topo.wall_loss_db", {"0", "9.5"}},
      {"topo.tx_power_dbm", {"4", "-3.5"}},
      {"topo.path_loss_exp", {"3.1", "1.7"}},
      {"topo.sensitivity_dbm", {"-90", "-97.25"}},
      {"topo.fade_margin_db", {"6", "0.5"}},
      {"topo.seed", {"3", "18446744073709551615"}},
      {"duration", {"0s", "7200s", "1500ms"}},
      {"producer_interval", {"1s", "250ms"}},
      {"producer_jitter", {"0s", "500ms"}},
      {"conn_interval", {"75ms", "65ms:85ms", "7500us"}},
      {"supervision_timeout", {"0s", "4s"}},
      {"payload_len", {"0", "39", "65535"}},
      {"seed", {"0", "18446744073709551615"}},
      {"base_per", {"0", "1", "0.123456789"}},
      {"drift_ppm_range", {"0", "12.5"}},
      {"jam_channel_22", {"true", "false"}},
      {"exclude_channel_22", {"true", "false"}},
      {"adaptive_channel_map", {"true", "false"}},
      {"confirmable_coap", {"true", "false"}},
      {"param_update_mitigation", {"true", "false"}},
      {"arena", {"false"}},
      {"compression", {"uncompressed", "iphc"}},
      {"metrics_bucket", {"1s", "600s"}},
      {"fault.",
       {"crash node=3 at=10s", "blackout link=1-2 at=5s for=30s",
        "attenuate link=1-2 at=5s for=30s per=0.123456789",
        "interfere channels=10-14 at=5s for=1s per=0.3 node=3 radius=7.123456789",
        "clock_drift node=3 at=10s ppm=12.345678901 for=5s",
        "pressure node=3 at=10s for=5s bytes=512 radius=2.5"}},
      {"chaos_rate", {"0.5", "2"}},
      {"chaos_kinds", {"crash", "crash+blackout"}},
      {"reconnect_backoff_base", {"10ms", "1s"}},
      {"reconnect_backoff_max", {"640ms", "2s"}},
      {"reconnect_backoff_jitter", {"0s", "20ms"}},
      {"flow.preset", {"off", "link", "netif", "app", "all"}},
      {"flow.l2cap_credits", {"deferred"}},
      {"flow.initial_credits", {"1", "65535"}},
      {"flow.credit_batch", {"1", "4"}},
      {"flow.txq_frames", {"16", "1048576"}},
      {"flow.backoff", {"true"}},
      {"flow.backoff_base", {"0s", "5ms", "100ms"}},
      {"flow.backoff_max", {"1s", "5s"}},
      {"flow.backoff_jitter", {"0s", "50ms"}},
      {"flow.breaker", {"true"}},
      {"flow.breaker_threshold", {"1", "4"}},
      {"flow.breaker_open", {"250ms"}},
      {"flow.breaker_probes", {"1", "5"}},
      {"flow.congest_on_pct", {"80", "100"}},
      {"flow.congest_off_pct", {"0", "40"}},
      {"cc.mode", {"cocoa"}},
      {"cc.nstart", {"1", "65536"}},
      {"mesh.ttl", {"1", "127"}},
      {"mesh.relay_density", {"0", "0.25"}},
      {"mesh.cache_entries", {"4", "65536"}},
      {"mesh.transmit_count", {"2", "8"}},
      {"mesh.adv_interval", {"5ms", "10s"}},
      {"mesh.heartbeat_period", {"2s"}},
      {"mesh.queue_cap", {"4", "4096"}},
      {"mesh.reasm_entries", {"1", "256"}},
      {"mesh.scan_duty", {"0.5", "0.123456789"}},
      {"energy.account", {"true"}},
      {"trace.file", {"run.mgt"}},
      {"trace.pcap", {"run.pcapng"}},
      {"trace.categories", {"ll,net", "fault"}},
  };
  return table;
}

/// True when `key`'s own line is legitimately absent from the render because
/// another drawn key decides it (parse order is alphabetical).
bool decided_elsewhere(const std::string& key,
                       const std::map<std::string, std::string>& drawn) {
  static const std::set<std::string> preset_covers = {
      "cc.mode", "cc.nstart", "flow.backoff", "flow.breaker", "flow.l2cap_credits"};
  if (key == "flow.preset") return true;  // a macro: renders through the keys it sets
  if (drawn.contains("flow.preset") && preset_covers.contains(key)) return true;
  if (key == "link.backend" && drawn.contains("radio")) return true;
  return key == "topology" && drawn.contains("topo.generator");
}

TEST(ConfigFile, RenderIsAFixedPointAndKeepsEveryKey) {
  const std::vector<std::string_view> names = experiment_config_keys();
  for (const std::string_view name : names) {
    ASSERT_TRUE(samples().contains(name)) << "no sample values for '" << name << "'";
  }
  const auto property = [&](check::Gen& g) {
    std::map<std::string, std::string> drawn;  // file order is irrelevant
    for (const std::string_view name : names) {
      if (!g.boolean(0.3)) continue;
      std::string key{name};
      if (name.ends_with('.')) key += "0";  // one member of a prefix family
      drawn[key] = std::string(g.pick(samples().at(name)));
    }
    // topo.* keys describe a generated world, chaos_kinds a chaos process.
    const auto topo_key = drawn.lower_bound("topo.");
    if (topo_key != drawn.end() && topo_key->first.starts_with("topo.") &&
        !drawn.contains("topo.generator")) {
      drawn["topo.generator"] = g.pick(samples().at("topo.generator"));
    }
    if (drawn.contains("chaos_kinds") && !drawn.contains("chaos_rate")) {
      drawn["chaos_rate"] = g.pick(samples().at("chaos_rate"));
    }

    std::string text;
    for (const auto& [key, value] : drawn) text += key + " = " + value + "\n";
    const std::string rendered = render_experiment_config(parse_experiment_config(text));
    PROP_ASSERT(render_experiment_config(parse_experiment_config(rendered)) == rendered,
                "render is not a fixed point for\n" + text);
    for (const auto& [key, value] : drawn) {
      if (decided_elsewhere(key, drawn)) continue;
      const std::string want = key + " = " + value + "\n";
      PROP_ASSERT(("\n" + rendered).find("\n" + want) != std::string::npos,
                  "missing '" + want + "' in\n" + rendered);
    }
  };
  const auto result = check::check_property("config-render-round-trip", property);
  EXPECT_TRUE(result.ok) << result.report();
}

// --- link.backend / mesh.* strict validation -------------------------------

TEST(ConfigFile, LinkBackendParses) {
  EXPECT_EQ(parse_experiment_config("link.backend = ble\n").radio,
            core::LinkBackendKind::kBle);
  EXPECT_EQ(parse_experiment_config("link.backend = 802154\n").radio,
            core::LinkBackendKind::kIeee802154);
  EXPECT_EQ(parse_experiment_config("link.backend = ieee802154\n").radio,
            core::LinkBackendKind::kIeee802154);
  EXPECT_EQ(parse_experiment_config("link.backend = mesh\n").radio,
            core::LinkBackendKind::kMesh);
  EXPECT_EQ(parse_experiment_config("link.backend = adv\n").radio,
            core::LinkBackendKind::kAdv);
  expect_config_error("link.backend = zigbee",
                      "config: unknown link.backend 'zigbee'");
  // The legacy `radio` spelling stays limited to the original two.
  expect_config_error("radio = mesh", "config: unknown radio 'mesh'");
}

TEST(ConfigFile, MeshKeysParse) {
  const auto cfg = parse_experiment_config(R"(
link.backend = mesh
mesh.ttl = 9
mesh.relay_density = 0.25
mesh.cache_entries = 256
mesh.transmit_count = 3
mesh.adv_interval = 40ms
mesh.heartbeat_period = 2s
mesh.queue_cap = 128
mesh.reasm_entries = 64
mesh.scan_duty = 0.5
energy.account = true
)");
  EXPECT_EQ(cfg.radio, core::LinkBackendKind::kMesh);
  EXPECT_EQ(cfg.mesh.ttl, 9u);
  EXPECT_DOUBLE_EQ(cfg.mesh.relay_density, 0.25);
  EXPECT_EQ(cfg.mesh.cache_entries, 256u);
  EXPECT_EQ(cfg.mesh.transmit_count, 3u);
  EXPECT_EQ(cfg.mesh.adv_interval, sim::Duration::ms(40));
  EXPECT_EQ(cfg.mesh.heartbeat_period, sim::Duration::sec(2));
  EXPECT_EQ(cfg.mesh.queue_cap, 128u);
  EXPECT_EQ(cfg.mesh.reasm_entries, 64u);
  EXPECT_DOUBLE_EQ(cfg.mesh.scan_duty, 0.5);
  EXPECT_TRUE(cfg.energy_account);
  // "off" and "0" both disable heartbeats.
  EXPECT_TRUE(parse_experiment_config("mesh.heartbeat_period = off\n")
                  .mesh.heartbeat_period.is_zero());
  EXPECT_TRUE(parse_experiment_config("mesh.heartbeat_period = 0\n")
                  .mesh.heartbeat_period.is_zero());
}

TEST(ConfigFile, MeshKeysRejectBadValues) {
  expect_config_error("mesh.ttl = 0", "config: mesh.ttl out of range [1, 127]");
  expect_config_error("mesh.ttl = 128",
                      "config: mesh.ttl out of range [1, 127]");
  expect_config_error("mesh.ttl = lots", "config: bad mesh.ttl");
  expect_config_error("mesh.relay_density = 1.5",
                      "config: mesh.relay_density out of range [0, 1]");
  expect_config_error("mesh.relay_density = -0.1",
                      "config: mesh.relay_density out of range [0, 1]");
  expect_config_error("mesh.relay_density = dense",
                      "config: bad mesh.relay_density");
  expect_config_error("mesh.cache_entries = 2",
                      "config: mesh.cache_entries out of range [4, 65536]");
  expect_config_error("mesh.transmit_count = 9",
                      "config: mesh.transmit_count out of range [1, 8]");
  expect_config_error("mesh.transmit_count = 0",
                      "config: mesh.transmit_count out of range [1, 8]");
  expect_config_error("mesh.adv_interval = 1ms",
                      "config: mesh.adv_interval out of range [5ms, 10s]");
  expect_config_error("mesh.adv_interval = 11s",
                      "config: mesh.adv_interval out of range [5ms, 10s]");
  expect_config_error("mesh.adv_interval = soon",
                      "config: bad mesh.adv_interval");
  expect_config_error("mesh.heartbeat_period = sometimes",
                      "config: bad mesh.heartbeat_period");
  expect_config_error("mesh.queue_cap = 2",
                      "config: mesh.queue_cap out of range [4, 4096]");
  expect_config_error("mesh.reasm_entries = 0",
                      "config: mesh.reasm_entries out of range [1, 256]");
  expect_config_error("mesh.scan_duty = 0",
                      "config: mesh.scan_duty out of range (0, 1]");
  expect_config_error("mesh.scan_duty = 1.2",
                      "config: mesh.scan_duty out of range (0, 1]");
  expect_config_error("energy.account = maybe",
                      "config: bad boolean for 'energy.account'");
}

TEST(ConfigFile, MeshConfigRendersBackIdentically) {
  ExperimentConfig cfg;
  cfg.radio = core::LinkBackendKind::kMesh;
  cfg.mesh.ttl = 5;
  cfg.mesh.relay_density = 0.5;
  cfg.mesh.transmit_count = 2;
  cfg.mesh.adv_interval = sim::Duration::ms(40);
  cfg.mesh.heartbeat_period = sim::Duration::sec(4);
  cfg.mesh.scan_duty = 0.75;
  cfg.energy_account = true;
  const auto round = parse_experiment_config(render_experiment_config(cfg));
  EXPECT_EQ(round.radio, core::LinkBackendKind::kMesh);
  EXPECT_EQ(round.mesh.ttl, 5u);
  EXPECT_DOUBLE_EQ(round.mesh.relay_density, 0.5);
  EXPECT_EQ(round.mesh.transmit_count, 2u);
  EXPECT_EQ(round.mesh.adv_interval, sim::Duration::ms(40));
  EXPECT_EQ(round.mesh.heartbeat_period, sim::Duration::sec(4));
  EXPECT_DOUBLE_EQ(round.mesh.scan_duty, 0.75);
  EXPECT_TRUE(round.energy_account);
}

}  // namespace
}  // namespace mgap::testbed
