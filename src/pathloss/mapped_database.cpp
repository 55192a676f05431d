#include "pathloss/mapped_database.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#define MAGUS_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#else
#define MAGUS_HAS_MMAP 0
#endif

namespace magus::pathloss {

namespace {

struct MmapMetrics {
  obs::Counter& opens;
  obs::Counter& first_touches;
  obs::Counter& touch_bytes;
  obs::Counter& checksum_failures;
  obs::Counter& releases;
  obs::Counter& released_bytes;
  obs::Counter& index_checks;
  obs::Counter& index_failures;
  obs::Gauge& resident_bytes;

  [[nodiscard]] static MmapMetrics& get() {
    static auto& registry = obs::MetricsRegistry::global();
    static MmapMetrics metrics{
        registry.counter("pathloss.mmap.opens"),
        registry.counter("pathloss.mmap.first_touches"),
        registry.counter("pathloss.mmap.touch_bytes"),
        registry.counter("pathloss.mmap.checksum_failures"),
        registry.counter("pathloss.mmap.releases"),
        registry.counter("pathloss.mmap.released_bytes"),
        registry.counter("pathloss.mmap.index_checks"),
        registry.counter("pathloss.mmap.index_failures"),
        registry.gauge("pathloss.mmap.resident_bytes"),
    };
    return metrics;
  }
};

[[nodiscard]] bool mmap_disabled_by_env() {
  const char* env = std::getenv("MAGUS_NO_MMAP");
  return env != nullptr && *env != '\0' && *env != '0';
}

}  // namespace

MappedPathLossDatabase::MappedPathLossDatabase(const std::string& path)
    : path_(path),
      dir_(format::read_v3(path_, file_bytes_)),
      grid_(geo::Rect{{dir_.min_x, dir_.min_y},
                      {dir_.min_x + dir_.cols * dir_.cell_size_m,
                       dir_.min_y + dir_.rows * dir_.cell_size_m}},
            dir_.cell_size_m) {
  MAGUS_TRACE_SPAN("pathloss.mmap_open", "io.db");
  try {
#if MAGUS_HAS_MMAP
    if (!mmap_disabled_by_env()) {
      const int fd = ::open(path_.c_str(), O_RDONLY);
      if (fd < 0) {
        throw std::runtime_error("PathLossDatabase: cannot open " + path_);
      }
      void* map =
          ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);  // the mapping keeps the file alive
      if (map == MAP_FAILED) {
        throw std::runtime_error(
            "MappedPathLossDatabase: mmap failed for " + path_);
      }
      map_ = static_cast<const std::byte*>(map);
      map_length_ = file_bytes_;
    } else {
      // The fallback reads through one descriptor held until close, so
      // the handle keeps reading the inode it opened even after a save()
      // renames a new file over the path.
      fd_ = ::open(path_.c_str(), O_RDONLY);
      if (fd_ < 0) {
        throw std::runtime_error("PathLossDatabase: cannot open " + path_);
      }
    }
#endif
    count_ = dir_.entries.size();
    std::vector<std::size_t> order(count_);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const format::V3Entry& ea = dir_.entries[a];
      const format::V3Entry& eb = dir_.entries[b];
      return std::pair{ea.sector, ea.tilt} < std::pair{eb.sector, eb.tilt};
    });
    keys_.reserve(count_);
    entries_ = std::make_unique<Entry[]>(count_);
    for (std::size_t i = 0; i < count_; ++i) {
      const format::V3Entry& meta = dir_.entries[order[i]];
      keys_.emplace_back(meta.sector, meta.tilt);
      entries_[i].meta = meta;
      if (map_ != nullptr) mapped_bytes_ += meta.window_bytes;
    }
    for (std::size_t i = 1; i < count_; ++i) {
      if (keys_[i] == keys_[i - 1]) {
        throw std::runtime_error(
            "PathLossDatabase: duplicate entry for sector " +
            std::to_string(keys_[i].first) + " tilt " +
            std::to_string(keys_[i].second) + " in " + path_);
      }
    }
    dir_.entries.clear();
    dir_.entries.shrink_to_fit();
  } catch (...) {
    unmap();
    throw;
  }
  MmapMetrics::get().opens.add(1);
}

MappedPathLossDatabase::~MappedPathLossDatabase() { unmap(); }

void MappedPathLossDatabase::unmap() noexcept {
#if MAGUS_HAS_MMAP
  if (map_ != nullptr) {
    ::munmap(const_cast<void*>(static_cast<const void*>(map_)), map_length_);
  }
  if (fd_ >= 0) ::close(fd_);
#endif
  map_ = nullptr;
  map_length_ = 0;
  fd_ = -1;
}

bool MappedPathLossDatabase::read_plane(std::uint64_t offset, char* out,
                                        std::size_t bytes) const {
#if MAGUS_HAS_MMAP
  // pread leaves no shared file position, so concurrent first touches of
  // different entries read through the one descriptor without a lock.
  while (bytes > 0) {
    const ::ssize_t got =
        ::pread(fd_, out, bytes, static_cast<::off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    offset += static_cast<std::uint64_t>(got);
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
#else
  // Without POSIX a fresh stream per touch keeps this path lock-free
  // across entries, at the price of re-opening the path.
  std::ifstream in(path_, std::ios::binary);
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(out, static_cast<std::streamsize>(bytes));
  return static_cast<bool>(in);
#endif
}

MappedPathLossDatabase::Entry* MappedPathLossDatabase::find(
    net::SectorId sector, radio::TiltIndex tilt) {
  const std::pair<std::int32_t, std::int32_t> key{sector, tilt};
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it == keys_.end() || *it != key) return nullptr;
  return &entries_[static_cast<std::size_t>(it - keys_.begin())];
}

const MappedPathLossDatabase::Entry* MappedPathLossDatabase::find(
    net::SectorId sector, radio::TiltIndex tilt) const {
  return const_cast<MappedPathLossDatabase*>(this)->find(sector, tilt);
}

bool MappedPathLossDatabase::contains(net::SectorId sector,
                                      radio::TiltIndex tilt) const {
  return find(sector, tilt) != nullptr;
}

void MappedPathLossDatabase::materialize(Entry& entry) {
  if (entry.ready.load(std::memory_order_acquire)) return;
  const std::lock_guard lock{entry.mutex};
  if (entry.ready.load(std::memory_order_relaxed)) return;

  const format::V3Entry& meta = entry.meta;
  const float* plane = nullptr;
  if (map_ != nullptr) {
    plane = reinterpret_cast<const float*>(map_ + meta.data_offset);
  } else if (meta.window_bytes > 0) {
    // Positioned-read fallback: same laziness and validation order, the
    // plane just lives in an entry-owned heap buffer.
    entry.fallback_plane.resize(meta.window_bytes / sizeof(float));
    if (!read_plane(meta.data_offset,
                    reinterpret_cast<char*>(entry.fallback_plane.data()),
                    meta.window_bytes)) {
      entry.fallback_plane = std::vector<float>{};
      throw std::runtime_error("PathLossDatabase: read failed in " + path_);
    }
    plane = entry.fallback_plane.data();
  }

  // First-touch integrity: the checksum runs over the raw (geometry +
  // gain) bytes exactly as save wrote them, before any footprint exists.
  if (format::entry_checksum_raw(meta.sector, meta.tilt, meta.col0,
                                 meta.row0, meta.window_cols,
                                 meta.window_rows, plane,
                                 meta.window_bytes) != meta.checksum) {
    MmapMetrics::get().checksum_failures.add(1);
    entry.fallback_plane = std::vector<float>{};
    throw std::runtime_error(
        "MappedPathLossDatabase: checksum mismatch (sector " +
        std::to_string(meta.sector) + " tilt " + std::to_string(meta.tilt) +
        ") in " + path_);
  }
  try {
    entry.fp = SectorFootprint{grid_.cols(),    grid_.rows(),
                               meta.col0,       meta.row0,
                               meta.window_cols, meta.window_rows,
                               plane};
  } catch (const std::invalid_argument& error) {
    entry.fallback_plane = std::vector<float>{};
    throw std::runtime_error("MappedPathLossDatabase: " +
                             std::string{error.what()} + " in " + path_);
  }

  const std::size_t bytes =
      entry.fp.resident_bytes() +
      entry.fallback_plane.capacity() * sizeof(float);
  const std::size_t now =
      heap_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  touched_.fetch_add(1, std::memory_order_relaxed);
  MmapMetrics& metrics = MmapMetrics::get();
  metrics.first_touches.add(1);
  metrics.touch_bytes.add(meta.window_bytes);
  metrics.resident_bytes.set(static_cast<double>(now));
  entry.ready.store(true, std::memory_order_release);
}

const format::IndexSection* MappedPathLossDatabase::coverage_section() {
  if (section_ready_.load(std::memory_order_acquire)) return &section_;
  if (!dir_.has_index_section()) return nullptr;
  const std::lock_guard lock{section_mutex_};
  if (section_ready_.load(std::memory_order_relaxed)) return &section_;

  MAGUS_TRACE_SPAN("pathloss.index_check", "io.db");
  // parse_v3 proved payload_end == file size, so the section lies inside
  // the mapping; a payload_end short of the section start leaves it no
  // bytes, which the parse reports as truncated.
  const std::uint64_t offset = dir_.index_offset();
  const std::uint64_t bytes =
      dir_.payload_end - std::min(dir_.payload_end, offset);
  const std::byte* data = nullptr;
  if (map_ != nullptr) {
    data = map_ + std::min<std::uint64_t>(offset, map_length_);
  } else {
    section_buffer_.resize(static_cast<std::size_t>((bytes + 7) / 8));
    if (bytes > 0 &&
        !read_plane(offset, reinterpret_cast<char*>(section_buffer_.data()),
                    static_cast<std::size_t>(bytes))) {
      section_buffer_ = std::vector<std::uint64_t>{};
      throw std::runtime_error("PathLossDatabase: read failed in " + path_);
    }
    data = reinterpret_cast<const std::byte*>(section_buffer_.data());
  }
  std::vector<std::int32_t> tilt0_sectors;
  for (const auto& [sector, tilt] : keys_) {
    if (tilt == format::kIndexTilt) tilt0_sectors.push_back(sector);
  }
  try {
    section_ = format::parse_index_section(data, bytes, grid_.cell_count(),
                                           tilt0_sectors, path_);
  } catch (const std::runtime_error&) {
    MmapMetrics::get().index_failures.add(1);
    section_buffer_ = std::vector<std::uint64_t>{};
    throw;
  }
  MmapMetrics::get().index_checks.add(1);
  section_ready_.store(true, std::memory_order_release);
  return &section_;
}

const SectorFootprint& MappedPathLossDatabase::footprint(
    net::SectorId sector, radio::TiltIndex tilt) {
  Entry* entry = find(sector, tilt);
  if (entry == nullptr) {
    throw std::out_of_range(
        "MappedPathLossDatabase: missing matrix for sector " +
        std::to_string(sector) + " tilt " + std::to_string(tilt));
  }
  materialize(*entry);
  return entry->fp;
}

std::size_t MappedPathLossDatabase::release_residency() {
  std::size_t freed = 0;
  std::size_t released_entries = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    Entry& entry = entries_[i];
    const std::lock_guard lock{entry.mutex};
    if (!entry.ready.load(std::memory_order_relaxed)) continue;
    entry.ready.store(false, std::memory_order_release);
    freed += entry.fp.resident_bytes() +
             entry.fallback_plane.capacity() * sizeof(float);
    entry.fp = SectorFootprint{};
    entry.fallback_plane = std::vector<float>{};
    ++released_entries;
  }
  if (released_entries == 0) return 0;
  touched_.fetch_sub(released_entries, std::memory_order_relaxed);
  const std::size_t now =
      heap_bytes_.fetch_sub(freed, std::memory_order_relaxed) - freed;
  MmapMetrics& metrics = MmapMetrics::get();
  metrics.releases.add(1);
  metrics.released_bytes.add(freed);
  metrics.resident_bytes.set(static_cast<double>(now));
  return freed;
}

}  // namespace magus::pathloss
