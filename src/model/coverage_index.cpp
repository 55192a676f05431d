#include "model/coverage_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/simd.h"

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

/// Cells with at most this many entries are ranked by counting; larger
/// ones by sorting, whose O(n log n) wins there.
constexpr std::uint32_t kCountingRankMax = 64;

/// Fills ranked[k] with the position in `gain[0, n)` of the entry of rank
/// k under descending gain, position ascending on ties: the order
/// RankedRow promises. Entry i's rank is the number of entries that
/// precede it in that order, #{j < i : gain[j] >= gain[i]} +
/// #{j > i : gain[j] > gain[i]}, counted kWidth lanes at a time. Float
/// comparison treats -0 and +0 as equal and gains are never NaN, so this
/// is exactly the order of the sort below; tail lanes load -inf, which
/// never counts.
void counting_rank(const float* gain, std::uint32_t n,
                   std::uint32_t* ranked) {
  namespace vx = util::simd;
  constexpr std::uint32_t kW = vx::kWidth;
  constexpr float kNegInf = -std::numeric_limits<float>::infinity();
  const auto count = [](vx::fmask mask) {
    return static_cast<std::uint32_t>(std::popcount(vx::to_bits(mask)));
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    const vx::vfloat gi = vx::set1_f(gain[i]);
    std::uint32_t rank = 0;
    std::uint32_t j = 0;
    for (; j + kW <= i; j += kW) {
      rank += count(vx::cmp_ge_f(vx::loadu_f(gain + j), gi));
    }
    if (j < i) {
      rank += count(vx::cmp_ge_f(
          vx::loadu_f_partial(gain + j, static_cast<int>(i - j), kNegInf),
          gi));
    }
    for (j = i + 1; j + kW <= n; j += kW) {
      rank += count(vx::cmp_gt_f(vx::loadu_f(gain + j), gi));
    }
    if (j < n) {
      rank += count(vx::cmp_gt_f(
          vx::loadu_f_partial(gain + j, static_cast<int>(n - j), kNegInf),
          gi));
    }
    ranked[rank] = i;
  }
}

/// The same order by sorting one integer per entry,
/// (descending_key(gain) << 32) | i: i ascends with the position, so
/// integer order is exactly that order.
void sort_rank(const float* gain, std::uint32_t n, std::uint32_t* ranked,
               std::vector<std::uint64_t>& order) {
  order.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    order.push_back((std::uint64_t{descending_key(gain[i])} << 32) | i);
  }
  std::sort(order.begin(), order.end());
  for (std::uint32_t k = 0; k < n; ++k) {
    ranked[k] = static_cast<std::uint32_t>(order[k]);
  }
}

}  // namespace

CoverageIndex CoverageIndex::build(const net::Network& network,
                                   pathloss::PathLossProvider& provider) {
  std::vector<net::SectorId> sectors;
  std::vector<const pathloss::SectorFootprint*> footprints;
  sectors.reserve(network.sector_count());
  footprints.reserve(network.sector_count());
  for (const net::Sector& sector : network.sectors()) {
    sectors.push_back(sector.id);
    footprints.push_back(&provider.footprint(sector.id, kTilt));
  }
  return build(sectors, footprints, provider.grid().cols(),
               provider.grid().rows());
}

CoverageIndex CoverageIndex::build(
    std::span<const net::SectorId> sectors,
    std::span<const pathloss::SectorFootprint* const> footprints,
    std::int32_t grid_cols, std::int32_t grid_rows) {
  MAGUS_TRACE_SPAN("model.index.build", "model");
  const std::uint64_t start_ns = obs::monotonic_now_ns();
  if (sectors.size() != footprints.size()) {
    throw std::invalid_argument("CoverageIndex: one footprint per sector");
  }
  for (std::size_t i = 0; i < sectors.size(); ++i) {
    if (i > 0 && sectors[i - 1] >= sectors[i]) {
      throw std::invalid_argument(
          "CoverageIndex: sector ids must be strictly ascending");
    }
    const pathloss::SectorFootprint& fp = *footprints[i];
    if (fp.window_rows() > 0 &&
        (fp.grid_cols() != grid_cols || fp.grid_rows() != grid_rows)) {
      throw std::invalid_argument(
          "CoverageIndex: footprint does not match the grid");
    }
  }

  CoverageIndex index;
  Storage& out = index.storage_;
  const auto cols = static_cast<std::size_t>(grid_cols);
  const auto rows = static_cast<std::size_t>(grid_rows);
  const std::size_t cells = cols * rows;

  // Pass 1: per-cell cover counts (a footprint covers each cell at most
  // once, so a cell's count is its number of covering sectors), and per
  // grid row the sectors whose window spans it, in ascending id.
  std::vector<std::uint32_t> count(cells, 0);
  std::vector<std::vector<std::uint32_t>> row_sectors(rows);
  for (std::size_t i = 0; i < footprints.size(); ++i) {
    const pathloss::SectorFootprint& fp = *footprints[i];
    for (std::int32_t r = 0; r < fp.window_rows(); ++r) {
      row_sectors[static_cast<std::size_t>(fp.row0() + r)].push_back(
          static_cast<std::uint32_t>(i));
      const std::span<const float> gains = fp.window_row(r);
      std::uint32_t* line = count.data() + fp.row_first_cell(r);
      for (std::size_t c = 0; c < gains.size(); ++c) {
        line[c] += std::isnan(gains[c]) ? 0u : 1u;
      }
    }
  }

  out.row_start.resize(cells + 1);
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    out.row_start[i] = total;
    total += count[i];
  }
  out.row_start[cells] = total;
  // The SIMD sweeps gather entries with int32 offsets.
  if (total > static_cast<std::uint32_t>(
                  std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument(
        "CoverageIndex: entries exceed int32 indexing");
  }

  out.entry_sector.resize(total);
  out.gain.resize(total);
  out.linear.resize(total);
  out.ranked_sector.resize(total);
  out.ranked_col.resize(total);
  out.ranked_bound.resize(total);

  // Pass 2, one grid row at a time, so every write lands in that row's
  // block of entries. Fill: the row's sectors in ascending id, and each
  // cell's cursor only moves forward, so every cell's sector ids come out
  // ascending — the property the bit-identity argument needs.
  //
  // Rank, while the block is still in cache: each cell's entries
  // reordered by descending gain, sector id ascending on ties (a cell's
  // entries ascend by sector id, so that is position order). The gain is
  // what lets a top-2 scan stop early: power_cap + gain majorizes every
  // received power the entry can offer.
  std::vector<std::uint32_t> cursor(out.row_start.begin(),
                                    out.row_start.end() - 1);
  std::vector<std::uint64_t> order;
  std::vector<std::uint32_t> ranked;
  for (std::size_t r = 0; r < rows; ++r) {
    for (const std::uint32_t i : row_sectors[r]) {
      const pathloss::SectorFootprint& fp = *footprints[i];
      const auto window_row = static_cast<std::int32_t>(r) - fp.row0();
      const std::span<const float> gains = fp.window_row(window_row);
      const std::span<const float> linear = fp.linear_row(window_row);
      std::uint32_t* line = cursor.data() + fp.row_first_cell(window_row);
      for (std::size_t c = 0; c < gains.size(); ++c) {
        if (std::isnan(gains[c])) continue;
        const std::uint32_t e = line[c]++;
        out.entry_sector[e] = sectors[i];
        out.gain[e] = gains[c];
        out.linear[e] = linear[c];
      }
    }
    for (std::size_t g = r * cols; g < (r + 1) * cols; ++g) {
      const std::uint32_t first = out.row_start[g];
      const std::uint32_t size = out.row_start[g + 1] - first;
      const float* gain = out.gain.data() + first;
      ranked.resize(size);
      if (size <= kCountingRankMax) {
        counting_rank(gain, size, ranked.data());
      } else {
        sort_rank(gain, size, ranked.data(), order);
      }
      for (std::uint32_t k = 0; k < size; ++k) {
        const std::uint32_t e = first + ranked[k];
        out.ranked_sector[first + k] = out.entry_sector[e];
        out.ranked_col[first + k] = e;
        out.ranked_bound[first + k] = out.gain[e];
      }
    }
  }

  index.view_.row_start = out.row_start;
  index.view_.entry_sector = out.entry_sector;
  index.view_.gain = out.gain;
  index.view_.linear = out.linear;
  index.view_.ranked_sector = out.ranked_sector;
  index.view_.ranked_col = out.ranked_col;
  index.view_.ranked_bound = out.ranked_bound;

  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& builds = registry.counter("model.index.builds");
  static obs::Histogram& build_us = registry.histogram(
      "model.index.build_us", obs::exponential_bounds(10.0, 4.0, 12));
  builds.add(1);
  build_us.observe(
      static_cast<double>(obs::monotonic_now_ns() - start_ns) / 1000.0);
  index.publish_gauges();
  return index;
}

CoverageIndex CoverageIndex::bind(
    const pathloss::format::IndexSection& section) {
  MAGUS_TRACE_SPAN("model.index.bind", "model");
  CoverageIndex index;
  index.view_ = section;
  static obs::Counter& binds =
      obs::MetricsRegistry::global().counter("model.index.binds");
  binds.add(1);
  index.publish_gauges();
  return index;
}

bool CoverageIndex::binds_to(const pathloss::format::IndexSection& section,
                             const net::Network& network) {
  const std::span<const net::Sector> sectors = network.sectors();
  if (section.sectors.size() != sectors.size()) return false;
  for (std::size_t i = 0; i < sectors.size(); ++i) {
    if (section.sectors[i] != sectors[i].id) return false;
  }
  return true;
}

void CoverageIndex::publish_gauges() const {
  auto& registry = obs::MetricsRegistry::global();
  registry.gauge("model.index.bytes")
      .set(static_cast<double>(index_bytes()));
  registry.gauge("model.index.entries")
      .set(static_cast<double>(entry_count()));
}

}  // namespace magus::model
