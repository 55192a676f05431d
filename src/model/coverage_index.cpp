#include "model/coverage_index.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace magus::model {

namespace {

/// An integer whose ascending order is the descending order of `gain` as
/// float comparison sees it (gain is never NaN): -0 and +0 share a key,
/// like they compare equal.
[[nodiscard]] std::uint32_t descending_key(float gain) {
  const float canonical = gain + 0.0f;  // -0 + 0 is +0
  std::uint32_t bits = 0;
  std::memcpy(&bits, &canonical, sizeof bits);
  // A negative float's bits grow as it falls, so they already sort
  // descending. A positive float's bits grow as it rises, so they are
  // inverted, with the sign bit set first so every positive key stays below
  // every negative one.
  return (bits & 0x80000000u) != 0 ? bits : ~(bits | 0x80000000u);
}

}  // namespace

CoverageIndex CoverageIndex::build(const net::Network& network,
                                   pathloss::PathLossProvider& provider) {
  MAGUS_TRACE_SPAN("model.index.build", "model");
  const std::uint64_t start_ns = obs::monotonic_now_ns();

  CoverageIndex index;
  const auto cells =
      static_cast<std::size_t>(provider.grid().cell_count());

  // Pass 1: per-cell cover counts. A footprint covers each cell at most
  // once, so a cell's count is its number of covering sectors.
  std::vector<std::uint32_t> count(cells, 0);
  for (const net::Sector& sector : network.sectors()) {
    provider.footprint(sector.id, kTilt)
        .for_each_covered([&](geo::GridIndex g, float) {
          ++count[static_cast<std::size_t>(g)];
        });
  }

  index.row_start_.resize(cells + 1);
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    index.row_start_[i] = total;
    total += count[i];
  }
  index.row_start_[cells] = total;
  // The SIMD sweeps gather entries with int32 offsets.
  if (total > static_cast<std::uint32_t>(
                  std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument(
        "CoverageIndex: entries exceed int32 indexing");
  }

  // Pass 2: fill. The outer loop runs sectors in ascending id order and
  // each cell's cursor only moves forward, so every row's sector ids come
  // out ascending — the property the bit-identity argument needs.
  index.entry_sector_.assign(total, net::kInvalidSector);
  index.gain_.assign(total, 0.0f);
  index.linear_.assign(total, 0.0f);
  std::vector<std::uint32_t> cursor(index.row_start_.begin(),
                                    index.row_start_.end() - 1);
  for (const net::Sector& sector : network.sectors()) {
    provider.footprint(sector.id, kTilt)
        .for_each_covered_linear(
            [&](geo::GridIndex g, float gain, float linear) {
              const std::uint32_t e = cursor[static_cast<std::size_t>(g)]++;
              index.entry_sector_[e] = sector.id;
              index.gain_[e] = gain;
              index.linear_[e] = linear;
            });
  }

  // Ranked layout: each row's entries reordered by descending gain, sector
  // id ascending on ties. The gain is what lets a top-2 scan stop early:
  // power_cap + gain majorizes every received power the entry can offer.
  // Each entry sorts as one integer, (descending_key(gain) << 32) | k for
  // the k-th entry of its row: k ascends with the sector id, so integer
  // order is exactly that order.
  index.ranked_sector_.assign(total, net::kInvalidSector);
  index.ranked_col_.assign(total, 0);
  index.ranked_bound_.assign(total, 0.0f);
  std::vector<std::uint64_t> order;
  for (std::size_t i = 0; i < cells; ++i) {
    const std::uint32_t first = index.row_start_[i];
    const std::uint32_t size = index.row_start_[i + 1] - first;
    order.clear();
    for (std::uint32_t k = 0; k < size; ++k) {
      order.push_back(
          (std::uint64_t{descending_key(index.gain_[first + k])} << 32) | k);
    }
    std::sort(order.begin(), order.end());
    for (std::uint32_t k = 0; k < size; ++k) {
      const std::uint32_t e = first + static_cast<std::uint32_t>(order[k]);
      index.ranked_sector_[first + k] = index.entry_sector_[e];
      index.ranked_col_[first + k] = e;
      index.ranked_bound_[first + k] = index.gain_[e];
    }
  }

  index.bytes_ = index.row_start_.capacity() * sizeof(std::uint32_t) +
                 index.entry_sector_.capacity() * sizeof(std::int32_t) +
                 index.ranked_sector_.capacity() * sizeof(std::int32_t) +
                 index.ranked_col_.capacity() * sizeof(std::uint32_t) +
                 index.ranked_bound_.capacity() * sizeof(float) +
                 index.gain_.capacity() * sizeof(float) +
                 index.linear_.capacity() * sizeof(float);

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& builds = registry.counter("model.index.builds");
  static obs::Histogram& build_us = registry.histogram(
      "model.index.build_us", obs::exponential_bounds(10.0, 4.0, 12));
  builds.add(1);
  build_us.observe(
      static_cast<double>(obs::monotonic_now_ns() - start_ns) / 1000.0);
  registry.gauge("model.index.bytes")
      .set(static_cast<double>(index.bytes_));
  registry.gauge("model.index.entries")
      .set(static_cast<double>(index.entry_count()));
  return index;
}

}  // namespace magus::model
