#include "pathloss/database.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "model/coverage_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pathloss/format.h"
#include "pathloss/mapped_database.h"
#include "util/checksum.h"
#include "util/thread_pool.h"

namespace magus::pathloss {

namespace {

struct DbMetrics {
  obs::Counter& loads;
  obs::Counter& load_bytes;
  obs::Counter& load_failures;
  obs::Counter& rebuilds;
  obs::Counter& resaves;

  [[nodiscard]] static DbMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static DbMetrics metrics{
        registry.counter("pathloss.db.loads"),
        registry.counter("pathloss.db.load_bytes"),
        registry.counter("pathloss.db.load_failures"),
        registry.counter("pathloss.db.rebuilds"),
        registry.counter("pathloss.db.resaves"),
    };
    return metrics;
  }
};

struct CacheMetrics {
  obs::Counter& lookups;
  obs::Counter& builds;
  obs::Counter& shard_waits;

  [[nodiscard]] static CacheMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static CacheMetrics metrics{
        registry.counter("pathloss.cache.lookups"),
        registry.counter("pathloss.cache.builds"),
        registry.counter("pathloss.cache.shard_waits"),
    };
    return metrics;
  }
};

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void append_pod(std::vector<char>& out, const T& value) {
  const auto* p = reinterpret_cast<const char*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

}  // namespace

PathLossDatabase::PathLossDatabase(geo::GridMap grid)
    : grid_(std::move(grid)) {}

void PathLossDatabase::insert(net::SectorId sector, radio::TiltIndex tilt,
                              SectorFootprint footprint) {
  if (footprint.cell_count() !=
      static_cast<std::size_t>(grid_.cell_count())) {
    throw std::invalid_argument(
        "PathLossDatabase::insert: footprint does not match grid");
  }
  entries_.insert_or_assign(Key{sector, tilt}, std::move(footprint));
}

bool PathLossDatabase::contains(net::SectorId sector,
                                radio::TiltIndex tilt) const {
  return entries_.contains(Key{sector, tilt});
}

const SectorFootprint& PathLossDatabase::footprint(net::SectorId sector,
                                                   radio::TiltIndex tilt) {
  const auto it = entries_.find(Key{sector, tilt});
  if (it == entries_.end()) {
    throw std::out_of_range("PathLossDatabase: missing matrix for sector " +
                            std::to_string(sector) + " tilt " +
                            std::to_string(tilt));
  }
  return it->second;
}

std::size_t PathLossDatabase::resident_bytes() const {
  std::size_t bytes = 0;
  for (const auto& [key, footprint] : entries_) {
    bytes += footprint.resident_bytes();
  }
  return bytes;
}

PathLossDatabase::Probe PathLossDatabase::probe(const std::string& path) {
  Probe result;
  try {
    const format::V3Directory dir = format::read_v3(path, result.file_bytes);
    result.version = format::kVersionMapped;
    result.cols = dir.cols;
    result.rows = dir.rows;
    result.cell_size_m = dir.cell_size_m;
    result.entry_count = dir.entry_count;
    for (const format::V3Entry& entry : dir.entries) {
      result.mapped_bytes_estimate += entry.window_bytes;  // dB planes
      result.heap_bytes_estimate += entry.window_bytes;    // linear twins
    }
    result.resident_bytes_estimate =
        result.mapped_bytes_estimate + result.heap_bytes_estimate;
    if (dir.has_index_section() && dir.payload_end >= dir.index_offset()) {
      result.index_offset = dir.index_offset();
      result.index_section_bytes = dir.payload_end - dir.index_offset();
      if (result.index_section_bytes >= format::kIndexHeaderBytes) {
        std::byte header[format::kIndexHeaderBytes];
        std::ifstream in(path, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(result.index_offset));
        in.read(reinterpret_cast<char*>(header), sizeof header);
        if (in) result.index_header = format::read_index_header(header);
      }
    }
    result.ok = true;
  } catch (const std::runtime_error& error) {
    result.error = error.what();
    std::ifstream in(path, std::ios::binary);
    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    in.read(reinterpret_cast<char*>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char*>(&version), sizeof(version));
    if (in && magic == format::kMagic) result.version = version;
  }
  return result;
}

void PathLossDatabase::save(const std::string& path,
                            std::size_t threads) const {
  MAGUS_TRACE_SPAN("pathloss.db_save", "io.db");
  std::vector<const std::pair<const Key, SectorFootprint>*> items;
  items.reserve(entries_.size());
  for (const auto& item : entries_) items.push_back(&item);

  // Plane layout in key order: each non-empty gain plane starts on the
  // next page boundary after the previous one (empty windows get no plane
  // and offset 0). Pure arithmetic, so the layout — like the checksums
  // below — is identical for any thread count.
  const std::uint64_t dir_end =
      format::kHeaderBytesV3 + items.size() * format::kDirEntryBytes;
  std::vector<std::uint64_t> offsets(items.size(), 0);
  std::uint64_t payload_end = dir_end;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::size_t window_bytes =
        items[i]->second.window().size() * sizeof(float);
    if (window_bytes == 0) continue;
    offsets[i] = format::align_up_page(payload_end);
    payload_end = offsets[i] + window_bytes;
  }

  // The coverage-index section, over the tilt-0 entries in ascending
  // sector id (the map's key order), on the page after the last plane.
  std::vector<net::SectorId> index_sectors;
  std::vector<const SectorFootprint*> index_footprints;
  for (const auto* item : items) {
    if (item->first.second != format::kIndexTilt) continue;
    index_sectors.push_back(item->first.first);
    index_footprints.push_back(&item->second);
  }
  std::optional<model::CoverageIndex> index;
  format::IndexSection section;
  std::uint64_t index_offset = 0;
  if (!index_sectors.empty()) {
    index.emplace(model::CoverageIndex::build(
        index_sectors, index_footprints, grid_.cols(), grid_.rows()));
    section = index->arrays();
    section.sectors = index_sectors;
    index_offset = format::align_up_page(payload_end);
    payload_end = index_offset + section.section_bytes();
  }

  // The checksums are the expensive part; fan them out per entry.
  std::vector<std::uint64_t> checksums(items.size(), 0);
  util::ThreadPool pool{threads};
  pool.run(items.size(), [&](std::size_t /*worker*/, std::size_t i) {
    const auto& [key, footprint] = *items[i];
    const auto window = footprint.window();
    checksums[i] = format::entry_checksum_raw(
        key.first, key.second, footprint.col0(), footprint.row0(),
        footprint.window_cols(), footprint.window_rows(), window.data(),
        window.size() * sizeof(float));
  });

  std::vector<char> directory;
  directory.reserve(items.size() * format::kDirEntryBytes);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& [key, footprint] = *items[i];
    append_pod(directory, key.first);
    append_pod(directory, key.second);
    append_pod(directory, footprint.col0());
    append_pod(directory, footprint.row0());
    append_pod(directory, footprint.window_cols());
    append_pod(directory, footprint.window_rows());
    append_pod(directory, offsets[i]);
    append_pod(directory, checksums[i]);
  }
  const std::uint64_t directory_checksum =
      util::fnv1a(directory.data(), directory.size());

  // Write a sibling temp file, then rename it over `path`: the old inode
  // (and any live mapping of it) is never truncated in place.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("PathLossDatabase: cannot open " + tmp_path);
    }
    write_pod(out, format::kMagic);
    write_pod(out, format::kVersionMapped);
    write_pod(out, grid_.area().min.x_m);
    write_pod(out, grid_.area().min.y_m);
    write_pod(out, grid_.cell_size_m());
    write_pod(out, grid_.cols());
    write_pod(out, grid_.rows());
    write_pod(out, static_cast<std::uint64_t>(items.size()));
    write_pod(out, directory_checksum);
    write_pod(out, payload_end);
    out.write(directory.data(),
              static_cast<std::streamsize>(directory.size()));

    const std::vector<char> zeros(format::kPageBytes, 0);
    std::uint64_t written = dir_end;
    const auto pad_to = [&](std::uint64_t offset) {
      std::uint64_t pad = offset - written;
      while (pad > 0) {
        const auto chunk = static_cast<std::streamsize>(
            std::min<std::uint64_t>(pad, zeros.size()));
        out.write(zeros.data(), chunk);
        pad -= static_cast<std::uint64_t>(chunk);
      }
    };
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto window = items[i]->second.window();
      if (window.empty()) continue;
      pad_to(offsets[i]);
      out.write(reinterpret_cast<const char*>(window.data()),
                static_cast<std::streamsize>(window.size() * sizeof(float)));
      written = offsets[i] + window.size() * sizeof(float);
    }
    if (index) {
      pad_to(index_offset);
      format::write_index_section(out, section);
    }
    out.close();
    if (!out) {
      std::filesystem::remove(tmp_path);
      throw std::runtime_error("PathLossDatabase: write failed in " +
                               tmp_path);
    }
  }
  std::error_code error;
  std::filesystem::rename(tmp_path, path, error);
  if (error) {
    std::filesystem::remove(tmp_path, error);
    throw std::runtime_error("PathLossDatabase: cannot replace " + path);
  }
}

PathLossDatabase PathLossDatabase::load(const std::string& path) {
  // io.db: the profiler buckets this span as DB I/O (see obs/profiler.h).
  MAGUS_TRACE_SPAN("pathloss.db_load", "io.db");
  MappedPathLossDatabase mapped{path};
  DbMetrics::get().loads.add(1);
  DbMetrics::get().load_bytes.add(mapped.file_bytes());
  PathLossDatabase db{mapped.grid()};
  for (const auto& [sector, tilt] : mapped.keys()) {
    db.entries_.emplace(Key{sector, tilt},
                        mapped.footprint(sector, tilt).to_owned());
  }
  // An eager load checks every byte it was promised: the coverage-index
  // section too, though the in-memory database does not keep it.
  (void)mapped.coverage_section();
  return db;
}

PathLossDatabase PathLossDatabase::load_or_rebuild(
    const std::string& path, PathLossProvider& fallback,
    std::span<const net::SectorId> sectors,
    std::span<const radio::TiltIndex> tilts, LoadReport* report,
    std::size_t threads) {
  MAGUS_TRACE_SPAN("pathloss.db_load_or_rebuild", "pathloss");
  LoadReport local;
  LoadReport& out = report != nullptr ? *report : local;
  out = LoadReport{};
  try {
    PathLossDatabase db = load(path);
    const geo::GridMap& expected = fallback.grid();
    if (db.grid_.cols() != expected.cols() ||
        db.grid_.rows() != expected.rows() ||
        db.grid_.cell_size_m() != expected.cell_size_m()) {
      throw std::runtime_error(
          "PathLossDatabase: grid mismatch (file " +
          std::to_string(db.grid_.cols()) + "x" +
          std::to_string(db.grid_.rows()) + " @ " +
          std::to_string(db.grid_.cell_size_m()) + " m, expected " +
          std::to_string(expected.cols()) + "x" +
          std::to_string(expected.rows()) + " @ " +
          std::to_string(expected.cell_size_m()) + " m) in " + path);
    }
    for (const net::SectorId sector : sectors) {
      for (const radio::TiltIndex tilt : tilts) {
        if (!db.contains(sector, tilt)) {
          throw std::runtime_error(
              "PathLossDatabase: no matrix for sector " +
              std::to_string(sector) + " tilt " + std::to_string(tilt) +
              " in " + path);
        }
      }
    }
    return db;
  } catch (const std::runtime_error& error) {
    out.rebuilt = true;
    out.error = error.what();
    DbMetrics::get().load_failures.add(1);
  }
  MAGUS_TRACE_SPAN("pathloss.db_rebuild", "pathloss");
  DbMetrics::get().rebuilds.add(1);
  PathLossDatabase db{fallback.grid()};
  // Fan the footprint fetches out (the provider contract requires
  // concurrency-safe footprint()), then insert in deterministic
  // (sector, tilt) order so the rebuilt database matches the serial one.
  const std::size_t jobs = sectors.size() * tilts.size();
  std::vector<const SectorFootprint*> rebuilt(jobs, nullptr);
  util::ThreadPool pool{threads};
  pool.run(jobs, [&](std::size_t /*worker*/, std::size_t i) {
    const net::SectorId sector = sectors[i / tilts.size()];
    const radio::TiltIndex tilt = tilts[i % tilts.size()];
    rebuilt[i] = &fallback.footprint(sector, tilt);
  });
  for (std::size_t i = 0; i < jobs; ++i) {
    db.insert(sectors[i / tilts.size()], tilts[i % tilts.size()],
              *rebuilt[i]);
  }
  try {
    db.save(path, threads);
    out.resaved = true;
    DbMetrics::get().resaves.add(1);
  } catch (const std::runtime_error&) {
    out.resaved = false;  // a read-only location is fine; stay in memory
  }
  return db;
}

BuildingProvider::BuildingProvider(const net::Network* network,
                                   FootprintBuilder builder)
    : network_(network), builder_(std::move(builder)) {
  if (network_ == nullptr) {
    throw std::invalid_argument("BuildingProvider: network must not be null");
  }
}

BuildingProvider::Entry& BuildingProvider::entry_for(net::SectorId sector,
                                                     radio::TiltIndex tilt) {
  const std::pair<std::int32_t, std::int32_t> key{sector, tilt};
  // Mix both key halves so co-sited tilts spread across shards.
  const auto hash = static_cast<std::size_t>(sector) * 31u +
                    static_cast<std::size_t>(tilt + 64);
  Shard& shard = shards_[hash % kShardCount];
  std::unique_lock lock{shard.mutex, std::try_to_lock};
  if (!lock.owns_lock()) {
    CacheMetrics::get().shard_waits.add(1);
    // Contended path only: the span times how long this thread blocked on
    // the shard, and its wait.lock category routes it to the profiler's
    // lock_wait bucket.
    MAGUS_TRACE_SPAN("pathloss.shard_lock", "wait.lock");
    lock.lock();
  }
  return shard.map[key];  // std::map nodes are address-stable
}

const SectorFootprint& BuildingProvider::footprint(net::SectorId sector,
                                                   radio::TiltIndex tilt) {
  CacheMetrics::get().lookups.add(1);
  Entry& entry = entry_for(sector, tilt);
  // The build runs outside every shard lock: footprints for a given
  // (sector, tilt) are deterministic, so which thread builds one does not
  // matter, only that it is built exactly once — the entry's once_flag
  // guarantees that, and a failed build resets it so a later call retries.
  std::call_once(entry.once, [&] {
    if (build_hook_) build_hook_(sector, tilt);
    entry.footprint = builder_.build(network_->sector(sector), tilt);
    built_count_.fetch_add(1, std::memory_order_relaxed);
    CacheMetrics::get().builds.add(1);
  });
  return entry.footprint;
}

void BuildingProvider::prebuild(std::span<const net::SectorId> sectors,
                                std::span<const radio::TiltIndex> tilts,
                                std::size_t threads) {
  MAGUS_TRACE_SPAN("pathloss.cache_prebuild", "pathloss");
  util::ThreadPool pool{threads};
  std::vector<FootprintBuilder::Scratch> scratch(pool.size());
  pool.run(sectors.size(), [&](std::size_t worker, std::size_t i) {
    const net::SectorId sector = sectors[i];
    auto footprints = builder_.build_tilts(network_->sector(sector), tilts,
                                           &scratch[worker]);
    for (std::size_t t = 0; t < tilts.size(); ++t) {
      Entry& entry = entry_for(sector, tilts[t]);
      // A lazily built entry wins the race; the values are identical
      // either way, so dropping the fresh copy is fine.
      std::call_once(entry.once, [&] {
        if (build_hook_) build_hook_(sector, tilts[t]);
        entry.footprint = std::move(footprints[t]);
        built_count_.fetch_add(1, std::memory_order_relaxed);
        CacheMetrics::get().builds.add(1);
      });
    }
  });
}

ApproxTiltProvider::ApproxTiltProvider(PathLossProvider* inner,
                                       const net::Network* network,
                                       TiltDeltaModel delta_model)
    : inner_(inner), network_(network), delta_model_(delta_model) {
  if (inner_ == nullptr || network_ == nullptr) {
    throw std::invalid_argument(
        "ApproxTiltProvider: inner provider and network must not be null");
  }
}

const SectorFootprint& ApproxTiltProvider::footprint(net::SectorId sector,
                                                     radio::TiltIndex tilt) {
  if (tilt == 0) return inner_->footprint(sector, 0);
  // Serializes concurrent cache access; the inner provider has its own
  // locking, taken strictly after this one (no cycle).
  const std::lock_guard lock{mutex_};
  const std::pair<std::int32_t, std::int32_t> key{sector, tilt};
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  const SectorFootprint& base = inner_->footprint(sector, 0);
  const geo::Point site = network_->sector(sector).position;
  const geo::GridMap& map = grid();
  std::vector<float> window(base.window().begin(), base.window().end());
  for (std::int32_t row = 0; row < base.window_rows(); ++row) {
    for (std::int32_t col = 0; col < base.window_cols(); ++col) {
      auto& value =
          window[static_cast<std::size_t>(row) * base.window_cols() + col];
      if (std::isnan(value)) continue;
      const geo::GridIndex g =
          map.at(base.col0() + col, base.row0() + row);
      const double d = geo::distance_m(map.center_of(g), site);
      value += static_cast<float>(delta_model_.delta_db(d, 0, tilt));
    }
  }
  auto [inserted, _] = cache_.emplace(
      key, SectorFootprint{base.grid_cols(), base.grid_rows(), base.col0(),
                           base.row0(), base.window_cols(), base.window_rows(),
                           std::move(window)});
  return inserted->second;
}

}  // namespace magus::pathloss
