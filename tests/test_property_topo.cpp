// Randomized properties of the procedural topology subsystem: generation is
// a pure function of (spec, seed, ids) — same seed is bit-identical, a
// monotone relabel of the node ids moves the labels without moving the
// geometry or the tree shape, and an unformable deployment fails with the
// exact same error every time. A full experiment on a random generated world
// is likewise bit-identical when rerun with the same seed (the differential
// oracle, tests/helpers/oracle.hpp). Each property reproduces from the seed
// its failure report prints (see src/check/property.hpp).

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/property.hpp"
#include "helpers/oracle.hpp"
#include "helpers/topo_gen.hpp"
#include "testbed/experiment.hpp"
#include "topo/placement.hpp"
#include "topo/spec.hpp"
#include "topo/world.hpp"

namespace mgap {
namespace {

using check::check_property;
using testhelpers::gen_spec;

/// Strictly ascending id list of length n with random start and gaps.
std::vector<NodeId> gen_ids(check::Gen& g, std::size_t n) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  NodeId next = static_cast<NodeId>(g.u64(1, 900));
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(next);
    next += static_cast<NodeId>(g.u64(1, 5));
  }
  return ids;
}

/// Outcome of one generate_world call: the world, or the error text.
struct Outcome {
  std::optional<topo::GeneratedWorld> world;
  std::string error;
};

Outcome try_generate(const topo::TopoSpec& spec, std::uint64_t seed,
                     const std::vector<NodeId>& ids) {
  Outcome out;
  try {
    out.world.emplace(topo::generate_world(spec, seed, ids));
  } catch (const std::runtime_error& e) {
    out.error = e.what();
  }
  return out;
}

TEST(TopoProperty, SameSeedIsBitIdentical) {
  const auto result = check_property("topo-same-seed", [](check::Gen& g) {
    const topo::TopoSpec spec = gen_spec(g);
    const std::uint64_t seed = g.u64(1, 1'000'000);
    const std::vector<NodeId> ids = gen_ids(g, spec.nodes);

    const Outcome a = try_generate(spec, seed, ids);
    const Outcome b = try_generate(spec, seed, ids);
    PROP_ASSERT(a.world.has_value() == b.world.has_value(),
                "same inputs must succeed or fail together");
    if (!a.world) {
      PROP_ASSERT(a.error == b.error, "failure message must be byte-identical");
      return;
    }
    // Exact double equality, not tolerance: the positions must come out of
    // the very same RNG draws.
    PROP_ASSERT(a.world->placement->ids == b.world->placement->ids, "ids");
    const auto& pa = a.world->placement->positions;
    const auto& pb = b.world->placement->positions;
    PROP_ASSERT(pa.size() == pb.size(), "position count");
    for (std::size_t i = 0; i < pa.size(); ++i) {
      PROP_ASSERT(pa[i].x == pb[i].x && pa[i].y == pb[i].y, "positions bit-identical");
    }
    PROP_ASSERT(a.world->consumer == b.world->consumer, "consumer");
    PROP_ASSERT(a.world->parent == b.world->parent, "routing tree");
    PROP_ASSERT(a.world->neighbors == b.world->neighbors, "neighbor tables");
  });
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(TopoProperty, MonotoneRelabelMovesLabelsNotGeometry) {
  const auto result = check_property("topo-relabel-invariance", [](check::Gen& g) {
    const topo::TopoSpec spec = gen_spec(g);
    const std::uint64_t seed = g.u64(1, 1'000'000);
    const std::vector<NodeId> ids = gen_ids(g, spec.nodes);
    // A strictly monotone relabel: shift everything and stretch the gaps.
    const NodeId shift = static_cast<NodeId>(g.u64(1, 500));
    std::vector<NodeId> relabeled;
    relabeled.reserve(ids.size());
    std::map<NodeId, NodeId> fwd;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const NodeId mapped = ids[i] * 2 + shift;
      relabeled.push_back(mapped);
      fwd[ids[i]] = mapped;
    }

    const Outcome a = try_generate(spec, seed, ids);
    const Outcome b = try_generate(spec, seed, relabeled);
    PROP_ASSERT(a.world.has_value() == b.world.has_value(),
                "relabeling must not change formability");
    if (!a.world) {
      // The message names counts and ranges, never ids, so it is identical.
      PROP_ASSERT(a.error == b.error, "failure message relabel-invariant");
      return;
    }
    const auto& pa = a.world->placement->positions;
    const auto& pb = b.world->placement->positions;
    PROP_ASSERT(pa.size() == pb.size(), "position count");
    for (std::size_t i = 0; i < pa.size(); ++i) {
      PROP_ASSERT(pa[i].x == pb[i].x && pa[i].y == pb[i].y,
                  "geometry independent of labels");
    }
    PROP_ASSERT(fwd.at(a.world->consumer) == b.world->consumer, "consumer maps over");
    PROP_ASSERT(a.world->parent.size() == b.world->parent.size(), "tree size");
    for (const auto& [child, parent] : a.world->parent) {
      PROP_ASSERT(b.world->parent.at(fwd.at(child)) == fwd.at(parent),
                  "routing tree maps over edge by edge");
    }
    PROP_ASSERT(a.world->neighbors.size() == b.world->neighbors.size(),
                "neighbor table size");
    for (const auto& [id, neigh] : a.world->neighbors) {
      std::vector<NodeId> mapped;
      mapped.reserve(neigh.size());
      for (const NodeId n : neigh) mapped.push_back(fwd.at(n));
      // A monotone map preserves ascending order, so the lists must be equal
      // element-for-element, not merely as sets.
      PROP_ASSERT(b.world->neighbors.at(fwd.at(id)) == mapped,
                  "neighbor tables map over in order");
    }
  });
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(TopoProperty, ConnectedTreeOrDeterministicFailure) {
  const auto result = check_property("topo-connectivity", [](check::Gen& g) {
    const topo::TopoSpec spec = gen_spec(g);
    const std::uint64_t seed = g.u64(1, 1'000'000);
    const std::vector<NodeId> ids = gen_ids(g, spec.nodes);

    const Outcome out = try_generate(spec, seed, ids);
    if (!out.world) {
      PROP_ASSERT(out.error.find("not connected") != std::string::npos,
                  "failure must be the connectivity diagnostic");
      return;
    }
    const topo::GeneratedWorld& w = *out.world;
    PROP_ASSERT(w.consumer == ids.front(), "consumer is the lowest id");
    PROP_ASSERT(w.parent.size() == ids.size() - 1, "every non-consumer has a parent");
    std::map<NodeId, unsigned> fanout;
    for (const auto& [child, parent] : w.parent) {
      PROP_ASSERT(topo::distance(w.placement->position(child),
                                 w.placement->position(parent)) <= spec.range,
                  "tree edges stay within the planning range");
      ++fanout[parent];
    }
    if (spec.max_degree != 0) {
      for (const auto& [parent, n] : fanout) {
        PROP_ASSERT(n <= spec.max_degree, "children-per-parent cap honored");
      }
    }
    // Every node walks up to the consumer without cycling.
    for (const NodeId start : ids) {
      NodeId n = start;
      std::size_t steps = 0;
      while (n != w.consumer) {
        const auto it = w.parent.find(n);
        PROP_ASSERT(it != w.parent.end(), "walk stays inside the tree");
        n = it->second;
        PROP_ASSERT(++steps <= ids.size(), "no cycles on the way up");
      }
    }
  });
  EXPECT_TRUE(result.ok) << result.report();
}

TEST(TopoProperty, SameSeedExperimentRerunIsBitIdentical) {
  check::PropertyConfig pc;
  pc.rounds = 4;  // two full experiments per round
  const auto result = check_property(
      "topo-experiment-rerun",
      [](check::Gen& g) {
        testbed::ExperimentConfig cfg;
        cfg.topo = gen_spec(g);
        cfg.duration = sim::Duration::sec(10);
        cfg.producer_interval = sim::Duration::sec(2);
        cfg.seed = g.u64(1, 1000);
        const auto r = testhelpers::run_differential(cfg);
        PROP_ASSERT(r.ok, r.divergence);
      },
      pc);
  EXPECT_TRUE(result.ok) << result.report();
}

}  // namespace
}  // namespace mgap
