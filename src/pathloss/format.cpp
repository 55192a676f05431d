#include "pathloss/format.h"

#include <algorithm>
#include <cstring>
#include <fstream>
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
             ? "; convert it with pathloss_db_tool --mode migrate-v3"
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

}  // namespace magus::pathloss::format
