#include "pathloss/format.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace magus::pathloss::format {

namespace {

/// Bounded cursor matching the loader's read_pod error contract.
struct Cursor {
  const char* data;
  std::size_t size;
  std::size_t off = 0;

  template <typename T>
  void read(T& value, const std::string& context) {
    if (size - off < sizeof(T)) {
      throw std::runtime_error("PathLossDatabase: " + context);
    }
    std::memcpy(&value, data + off, sizeof(T));
    off += sizeof(T);
  }
};

/// The next `count` elements at `cursor` as a span; advances the cursor.
template <typename T>
[[nodiscard]] std::span<const T> take(const std::byte*& cursor,
                                      std::size_t count) {
  const std::span<const T> span{reinterpret_cast<const T*>(cursor), count};
  cursor += span.size_bytes();
  return span;
}

}  // namespace

V3Directory parse_v3(const char* data, std::size_t available,
                     std::uint64_t file_size, const std::string& path) {
  Cursor cursor{data, available};
  V3Directory dir;

  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  cursor.read(magic, "truncated header in " + path);
  cursor.read(version, "truncated header in " + path);
  if (magic != kMagic) {
    throw std::runtime_error("PathLossDatabase: bad magic in " + path);
  }
  if (version != kVersionMapped) {
    throw std::runtime_error(
        "PathLossDatabase: unsupported version " + std::to_string(version) +
        " (expected " + std::to_string(kVersionMapped) + ") in " + path +
        (version < kVersionMapped
             ? "; regenerate the file from its seed"
             : ""));
  }
  cursor.read(dir.min_x, "truncated header in " + path);
  cursor.read(dir.min_y, "truncated header in " + path);
  cursor.read(dir.cell_size_m, "truncated header in " + path);
  cursor.read(dir.cols, "truncated header in " + path);
  cursor.read(dir.rows, "truncated header in " + path);
  if (!(dir.cell_size_m > 0.0) || dir.cols <= 0 || dir.rows <= 0) {
    throw std::runtime_error("PathLossDatabase: invalid grid geometry in " +
                             path);
  }
  std::uint64_t directory_checksum = 0;
  cursor.read(dir.entry_count, "truncated header in " + path);
  cursor.read(directory_checksum, "truncated header in " + path);
  cursor.read(dir.payload_end, "truncated header in " + path);

  // The directory must fit the real file (division first: a corrupted
  // entry count must not overflow the product).
  if (dir.entry_count > (file_size - std::min<std::uint64_t>(
                             file_size, kHeaderBytesV3)) /
                            kDirEntryBytes) {
    throw std::runtime_error("PathLossDatabase: truncated directory (" +
                             std::to_string(dir.entry_count) + " entries) in " +
                             path);
  }
  const std::uint64_t dir_bytes = dir.entry_count * kDirEntryBytes;
  const std::uint64_t dir_end = kHeaderBytesV3 + dir_bytes;
  if (available < dir_end) {
    throw std::runtime_error("PathLossDatabase: truncated directory (" +
                             std::to_string(dir.entry_count) + " entries) in " +
                             path);
  }
  if (util::fnv1a(data + kHeaderBytesV3, dir_bytes) != directory_checksum) {
    throw std::runtime_error("PathLossDatabase: directory checksum mismatch in " +
                             path);
  }
  // payload_end is the file size the directory was written against. A
  // shorter file is a torn tail (the last page(s) never hit the disk); a
  // longer one is trailing garbage. Both fail before any plane is touched.
  if (file_size < dir.payload_end) {
    throw std::runtime_error(
        "PathLossDatabase: torn payload (file " + std::to_string(file_size) +
        " bytes, directory promises " + std::to_string(dir.payload_end) +
        ") in " + path);
  }
  if (file_size > dir.payload_end) {
    throw std::runtime_error("PathLossDatabase: trailing bytes after " +
                             std::to_string(dir.entry_count) + " entries in " +
                             path);
  }

  dir.planes_end = dir_end;
  dir.entries.reserve(static_cast<std::size_t>(dir.entry_count));
  for (std::uint64_t e = 0; e < dir.entry_count; ++e) {
    const std::string entry_context = "entry " + std::to_string(e) + " of " +
                                      std::to_string(dir.entry_count);
    V3Entry entry;
    cursor.read(entry.sector, "truncated " + entry_context + " in " + path);
    cursor.read(entry.tilt, "truncated " + entry_context + " in " + path);
    cursor.read(entry.col0, "truncated " + entry_context + " in " + path);
    cursor.read(entry.row0, "truncated " + entry_context + " in " + path);
    cursor.read(entry.window_cols,
                "truncated " + entry_context + " in " + path);
    cursor.read(entry.window_rows,
                "truncated " + entry_context + " in " + path);
    cursor.read(entry.data_offset,
                "truncated " + entry_context + " in " + path);
    cursor.read(entry.checksum, "truncated " + entry_context + " in " + path);
    if (entry.window_cols < 0 || entry.window_rows < 0 ||
        entry.window_cols > dir.cols || entry.window_rows > dir.rows) {
      throw std::runtime_error("PathLossDatabase: oversized window (" +
                               entry_context + ") in " + path);
    }
    if (entry.col0 < 0 || entry.row0 < 0 ||
        entry.col0 > dir.cols - entry.window_cols ||
        entry.row0 > dir.rows - entry.window_rows) {
      throw std::runtime_error("PathLossDatabase: " + entry_context +
                               " does not fit the grid in " + path);
    }
    entry.window_bytes = static_cast<std::size_t>(entry.window_cols) *
                         static_cast<std::size_t>(entry.window_rows) *
                         sizeof(float);
    if (entry.window_bytes > 0) {
      if (entry.data_offset % kPageBytes != 0) {
        throw std::runtime_error("PathLossDatabase: misaligned gain plane (" +
                                 entry_context + ") in " + path);
      }
      if (entry.data_offset < dir_end ||
          entry.data_offset + entry.window_bytes > dir.payload_end) {
        throw std::runtime_error("PathLossDatabase: truncated " +
                                 entry_context + " in " + path);
      }
      dir.planes_end = std::max<std::uint64_t>(
          dir.planes_end, entry.data_offset + entry.window_bytes);
    }
    dir.entries.push_back(entry);
  }
  return dir;
}

V3Directory read_v3(const std::string& path, std::size_t& file_bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("PathLossDatabase: cannot open " + path);
  const std::streamoff size = in.tellg();
  file_bytes = size > 0 ? static_cast<std::size_t>(size) : 0;
  in.seekg(0, std::ios::beg);

  // Stream in the header, peek the entry count, then the directory. A
  // nonsensical count is left for parse_v3 to reject as a truncated
  // directory.
  std::vector<char> front(std::min<std::size_t>(file_bytes, kHeaderBytesV3));
  in.read(front.data(), static_cast<std::streamsize>(front.size()));
  if (!in) throw std::runtime_error("PathLossDatabase: read failed in " + path);
  if (front.size() >= kHeaderBytesV3) {
    std::uint64_t count = 0;
    std::memcpy(&count, front.data() + kHeaderPrefixBytes - sizeof(count),
                sizeof(count));
    if (count <= (file_bytes - front.size()) / kDirEntryBytes) {
      const std::size_t head = front.size();
      const std::size_t dir_bytes =
          static_cast<std::size_t>(count) * kDirEntryBytes;
      front.resize(head + dir_bytes);
      in.read(front.data() + head, static_cast<std::streamsize>(dir_bytes));
      if (!in) {
        throw std::runtime_error("PathLossDatabase: read failed in " + path);
      }
    }
  }
  return parse_v3(front.data(), front.size(), file_bytes, path);
}

std::size_t IndexSection::array_bytes() const {
  return row_start.size_bytes() + entry_sector.size_bytes() +
         gain.size_bytes() + linear.size_bytes() +
         ranked_sector.size_bytes() + ranked_col.size_bytes() +
         ranked_bound.size_bytes();
}

bool same_arrays(const IndexSection& a, const IndexSection& b) {
  const auto same = [](auto x, auto y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  return same(a.row_start, b.row_start) &&
         same(a.entry_sector, b.entry_sector) && same(a.gain, b.gain) &&
         same(a.linear, b.linear) && same(a.ranked_sector, b.ranked_sector) &&
         same(a.ranked_col, b.ranked_col) &&
         same(a.ranked_bound, b.ranked_bound);
}

std::uint64_t index_checksum(const IndexSection& section) {
  const std::uint64_t counts[] = {
      section.row_start.empty() ? 0 : section.row_start.size() - 1,
      section.entry_sector.size(), section.sectors.size()};
  std::uint64_t hash = util::hash64(counts, sizeof counts);
  const auto chain = [&hash](auto span) {
    hash = util::hash64(span.data(), span.size_bytes(), hash);
  };
  chain(section.sectors);
  chain(section.row_start);
  chain(section.entry_sector);
  chain(section.gain);
  chain(section.linear);
  chain(section.ranked_sector);
  chain(section.ranked_col);
  chain(section.ranked_bound);
  return hash;
}

void write_index_section(std::ostream& out, const IndexSection& section) {
  const std::uint64_t header[] = {
      kIndexTag, index_checksum(section),
      section.row_start.empty() ? 0 : section.row_start.size() - 1,
      section.entry_sector.size(), section.sectors.size()};
  static_assert(sizeof header == kIndexHeaderBytes);
  out.write(reinterpret_cast<const char*>(header), sizeof header);
  const auto put = [&out](auto span) {
    out.write(reinterpret_cast<const char*>(span.data()),
              static_cast<std::streamsize>(span.size_bytes()));
  };
  put(section.sectors);
  put(section.row_start);
  put(section.entry_sector);
  put(section.gain);
  put(section.linear);
  put(section.ranked_sector);
  put(section.ranked_col);
  put(section.ranked_bound);
}

IndexHeader read_index_header(const std::byte* data) {
  IndexHeader header;
  std::memcpy(&header.tag, data, 8);
  std::memcpy(&header.checksum, data + 8, 8);
  std::memcpy(&header.cells, data + 16, 8);
  std::memcpy(&header.entries, data + 24, 8);
  std::memcpy(&header.sectors, data + 32, 8);
  return header;
}

IndexSection parse_index_section(const std::byte* data, std::uint64_t bytes,
                                 std::int64_t grid_cells,
                                 std::span<const std::int32_t> tilt0_sectors,
                                 const std::string& path) {
  const auto fail = [&path](const std::string& what) {
    return std::runtime_error("PathLossDatabase: coverage index " + what +
                              " in " + path);
  };
  if (bytes < kIndexHeaderBytes) {
    throw fail("section truncated (" + std::to_string(bytes) + " bytes)");
  }
  const IndexHeader header = read_index_header(data);
  if (header.tag != kIndexTag) throw fail("bad tag");
  if (grid_cells < 0 || header.cells != static_cast<std::uint64_t>(grid_cells)) {
    throw fail("cell count " + std::to_string(header.cells) +
               " does not match the grid's " + std::to_string(grid_cells));
  }
  // The counts must spell out exactly the section's length. Each step
  // divides before it multiplies, so a damaged count cannot overflow.
  const std::uint64_t body = bytes - kIndexHeaderBytes;
  const std::uint64_t row_bytes = (header.cells + 1) * 4;
  const bool fits =
      header.sectors <= body / 4 && body - header.sectors * 4 >= row_bytes &&
      header.entries <= (body - header.sectors * 4 - row_bytes) / 24 &&
      body - header.sectors * 4 - row_bytes == header.entries * 24;
  if (!fits) {
    throw fail("length " + std::to_string(bytes) +
               " does not match its counts (" + std::to_string(header.cells) +
               " cells, " + std::to_string(header.entries) + " entries, " +
               std::to_string(header.sectors) + " sectors)");
  }
  if (header.entries >
      static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max())) {
    throw fail("entries exceed int32 indexing");
  }

  const auto cells = static_cast<std::size_t>(header.cells);
  const auto entries = static_cast<std::size_t>(header.entries);
  const std::byte* cursor = data + kIndexHeaderBytes;
  IndexSection section;
  section.sectors =
      take<std::int32_t>(cursor, static_cast<std::size_t>(header.sectors));
  section.row_start = take<std::uint32_t>(cursor, cells + 1);
  section.entry_sector = take<std::int32_t>(cursor, entries);
  section.gain = take<float>(cursor, entries);
  section.linear = take<float>(cursor, entries);
  section.ranked_sector = take<std::int32_t>(cursor, entries);
  section.ranked_col = take<std::uint32_t>(cursor, entries);
  section.ranked_bound = take<float>(cursor, entries);

  if (index_checksum(section) != header.checksum) {
    throw fail("checksum mismatch");
  }
  if (!std::equal(section.sectors.begin(), section.sectors.end(),
                  tilt0_sectors.begin(), tilt0_sectors.end())) {
    throw fail("sector list does not match the file's tilt-0 entries");
  }
  const std::uint32_t* row_start = section.row_start.data();
  if (row_start[0] != 0 || row_start[cells] != entries) {
    throw fail("row starts do not run from 0 to the entry count");
  }
  for (std::size_t g = 0; g < cells; ++g) {
    if (row_start[g + 1] < row_start[g]) {
      throw fail("row starts are not monotone (cell " + std::to_string(g) +
                 ")");
    }
  }
  const std::uint32_t* ranked_col = section.ranked_col.data();
  for (std::size_t g = 0; g < cells; ++g) {
    const std::uint32_t lo = row_start[g];
    const std::uint32_t hi = row_start[g + 1];
    for (std::uint32_t e = lo; e < hi; ++e) {
      if (ranked_col[e] < lo || ranked_col[e] >= hi) {
        throw fail("ranked column outside its row (cell " +
                   std::to_string(g) + ")");
      }
    }
  }
  // Sector ids index per-sector arrays in the model: each must lie within
  // the listed range (an empty list admits none).
  const std::int32_t lo = section.sectors.empty() ? 1 : section.sectors.front();
  const std::int32_t hi = section.sectors.empty() ? 0 : section.sectors.back();
  bool in_range = true;
  for (std::size_t e = 0; e < entries; ++e) {
    const std::int32_t a = section.entry_sector[e];
    const std::int32_t b = section.ranked_sector[e];
    in_range &= a >= lo && a <= hi && b >= lo && b <= hi;
  }
  if (!in_range) throw fail("sector id out of range");
  return section;
}

}  // namespace magus::pathloss::format
