#pragma once
// Random topology specs for property tests: the generator shared by the
// topo properties and the fast-forward differential.

#include <cstdint>
#include <vector>

#include "check/property.hpp"
#include "topo/spec.hpp"

namespace mgap::testhelpers {

/// A random but always-valid spec. Sparse density/range combinations are
/// deliberately reachable: disconnected deployments exercise the
/// deterministic-failure half of the properties.
inline topo::TopoSpec gen_spec(check::Gen& g) {
  topo::TopoSpec spec;
  spec.generator = g.pick(std::vector<topo::Generator>{
      topo::Generator::kGrid, topo::Generator::kJitterGrid, topo::Generator::kRgg,
      topo::Generator::kFloorplan});
  spec.nodes = static_cast<unsigned>(g.u64(2, 60));
  if (g.boolean(0.3)) {
    spec.area = 15.0 + 45.0 * g.real01();
  } else {
    spec.density = 2.0 + 14.0 * g.real01();
  }
  spec.range = 6.0 + 8.0 * g.real01();
  spec.max_degree = static_cast<unsigned>(
      g.pick(std::vector<std::uint64_t>{0, 2, 3, 8}));
  spec.grid_jitter = g.real01();
  if (g.boolean(0.4)) {
    spec.rooms_x = static_cast<unsigned>(g.u64(1, 4));
    spec.rooms_y = static_cast<unsigned>(g.u64(1, 4));
  }
  spec.wall_loss_db = 12.0 * g.real01();
  spec.validate();
  return spec;
}

}  // namespace mgap::testhelpers
