// Test oracle for model::CoverageIndex::build: the sector-major scatter
// build the library ran before its grid-row-blocked fill. It produces the
// index's seven arrays, which the identity tests compare byte for byte
// against a build and against a bound file section.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "model/coverage_index.h"
#include "net/network.h"
#include "pathloss/database.h"

namespace magus::testing {

struct OracleIndex {
  std::vector<std::uint32_t> row_start;
  std::vector<std::int32_t> entry_sector;
  std::vector<float> gain;
  std::vector<float> linear;
  std::vector<std::int32_t> ranked_sector;
  std::vector<std::uint32_t> ranked_col;
  std::vector<float> ranked_bound;

  /// The same byte count CoverageIndex::index_bytes() reports.
  [[nodiscard]] std::size_t bytes() const {
    return (row_start.size() + entry_sector.size() + gain.size() +
            linear.size() + ranked_sector.size() + ranked_col.size() +
            ranked_bound.size()) *
           4;
  }
};

[[nodiscard]] inline std::uint32_t oracle_descending_key(float gain) {
  const float canonical = gain + 0.0f;
  std::uint32_t bits = 0;
  std::memcpy(&bits, &canonical, sizeof bits);
  return (bits & 0x80000000u) != 0 ? bits : ~(bits | 0x80000000u);
}

/// Counts per cell, prefix sums, a sector-major fill with per-cell
/// cursors, then a per-cell sort of (descending gain key, k).
[[nodiscard]] inline OracleIndex oracle_build(
    const net::Network& network, pathloss::PathLossProvider& provider) {
  constexpr radio::TiltIndex kTilt = model::CoverageIndex::kTilt;
  OracleIndex index;
  const auto cells = static_cast<std::size_t>(provider.grid().cell_count());
  std::vector<std::uint32_t> count(cells, 0);
  for (const net::Sector& sector : network.sectors()) {
    provider.footprint(sector.id, kTilt)
        .for_each_covered([&](geo::GridIndex g, float) {
          ++count[static_cast<std::size_t>(g)];
        });
  }
  index.row_start.resize(cells + 1);
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    index.row_start[i] = total;
    total += count[i];
  }
  index.row_start[cells] = total;

  index.entry_sector.assign(total, net::kInvalidSector);
  index.gain.assign(total, 0.0f);
  index.linear.assign(total, 0.0f);
  std::vector<std::uint32_t> cursor(index.row_start.begin(),
                                    index.row_start.end() - 1);
  for (const net::Sector& sector : network.sectors()) {
    provider.footprint(sector.id, kTilt)
        .for_each_covered_linear(
            [&](geo::GridIndex g, float gain, float linear) {
              const std::uint32_t e = cursor[static_cast<std::size_t>(g)]++;
              index.entry_sector[e] = sector.id;
              index.gain[e] = gain;
              index.linear[e] = linear;
            });
  }

  index.ranked_sector.assign(total, net::kInvalidSector);
  index.ranked_col.assign(total, 0);
  index.ranked_bound.assign(total, 0.0f);
  std::vector<std::uint64_t> order;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint32_t first = index.row_start[i];
    const std::uint32_t size = index.row_start[i + 1] - first;
    order.clear();
    for (std::uint32_t k = 0; k < size; ++k) {
      order.push_back(
          (std::uint64_t{oracle_descending_key(index.gain[first + k])}
           << 32) |
          k);
    }
    std::sort(order.begin(), order.end());
    for (std::uint32_t k = 0; k < size; ++k) {
      const std::uint32_t e = first + static_cast<std::uint32_t>(order[k]);
      index.ranked_sector[first + k] = index.entry_sector[e];
      index.ranked_col[first + k] = e;
      index.ranked_bound[first + k] = index.gain[e];
    }
  }
  return index;
}

}  // namespace magus::testing
