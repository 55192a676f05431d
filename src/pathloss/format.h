// On-disk layout of the path-loss database file, shared by the writer and
// the eager loader (database.cpp), the mmap provider (mapped_database.cpp)
// and the db tool.
//
// v3 ("MAGUSPL1", version 3) is the only format written: a mappable
// section-table layout.
//
//   [ header  | prefix + directory checksum + payload end            ]
//   [ directory | entry_count x { 6 geometry i32, data_offset u64,  ]
//   [             entry checksum u64 }                              ]
//   [ ...zero padding to a 4096-byte page boundary...               ]
//   [ gain plane 0 | raw little-endian floats                       ]
//   [ ...zero padding...                                            ]
//   [ gain plane 1 ]  ...
//
// The header + directory are a few KB and are parsed (and their checksum
// verified) eagerly at open; gain planes start on page boundaries so an
// mmap can alias them zero-copy and the OS faults exactly the touched
// pages. Structural corruption — a truncated directory, a torn last page
// (file shorter than the payload end the header promises), trailing bytes,
// a window outside the grid — is caught at open, before any mapping is
// dereferenced (no SIGBUS on a short file); a bit flip *inside* a gain
// plane is only caught by the per-entry checksum on first touch, which is
// the deal that makes open O(directory) instead of O(file).
//
// The retired v2 stream format (same header prefix, then entry records of
// geometry + checksum + gain floats back to back) is read only by
// pathloss/v2_reader.h, for `pathloss_db_tool --mode migrate-v3`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/checksum.h"

namespace magus::pathloss::format {

inline constexpr std::uint64_t kMagic = 0x4D41475553504C31ULL;  // "MAGUSPL1"
inline constexpr std::uint32_t kVersionMapped = 3;

/// Header prefix shared by v2 and v3: magic, version, min_x, min_y,
/// cell_size, cols, rows, entry_count.
inline constexpr std::size_t kHeaderPrefixBytes =
    8 + 4 + 8 + 8 + 8 + 4 + 4 + 8;
/// v3 appends the directory checksum and the payload end offset.
inline constexpr std::size_t kHeaderBytesV3 = kHeaderPrefixBytes + 8 + 8;
/// One v3 directory record: sector, tilt, col0, row0, window_cols,
/// window_rows, data_offset, entry checksum.
inline constexpr std::size_t kDirEntryBytes = 6 * 4 + 8 + 8;
/// Gain planes start on page boundaries.
inline constexpr std::size_t kPageBytes = 4096;

[[nodiscard]] constexpr std::uint64_t align_up_page(std::uint64_t offset) {
  return (offset + (kPageBytes - 1)) & ~std::uint64_t{kPageBytes - 1};
}

/// FNV-1a over an entry's geometry ints then its raw gain bytes — the same
/// value for the same entry in a v2 and a v3 file, so an entry keeps its
/// checksum through `pathloss_db_tool --mode migrate-v3`.
[[nodiscard]] inline std::uint64_t entry_checksum_raw(
    std::int32_t sector, std::int32_t tilt, std::int32_t col0,
    std::int32_t row0, std::int32_t window_cols, std::int32_t window_rows,
    const void* window, std::size_t window_bytes) {
  const std::int32_t geometry[] = {sector,      tilt,        col0,
                                   row0,        window_cols, window_rows};
  return util::fnv1a(window, window_bytes,
                     util::fnv1a(geometry, sizeof(geometry)));
}

/// One parsed v3 directory record. data_offset is 0 for empty windows
/// (no plane bytes exist for them).
struct V3Entry {
  std::int32_t sector = 0;
  std::int32_t tilt = 0;
  std::int32_t col0 = 0;
  std::int32_t row0 = 0;
  std::int32_t window_cols = 0;
  std::int32_t window_rows = 0;
  std::uint64_t data_offset = 0;
  std::uint64_t checksum = 0;
  std::size_t window_bytes = 0;
};

struct V3Directory {
  double min_x = 0.0;
  double min_y = 0.0;
  double cell_size_m = 0.0;
  std::int32_t cols = 0;
  std::int32_t rows = 0;
  std::uint64_t entry_count = 0;
  /// Total file size the header promises (end of the last gain plane).
  std::uint64_t payload_end = 0;
  std::vector<V3Entry> entries;
};

/// Parses and structurally validates a v3 header + directory. `data` must
/// hold at least the header and directory bytes (callers that stream only
/// the front of the file read kHeaderBytesV3, then the directory);
/// `file_size` is the real on-disk size. Validates the magic/version/grid,
/// the directory checksum, that every window fits the grid, that every
/// plane's extent lies inside [directory end, payload_end] on a page
/// boundary, and that payload_end equals file_size — so a truncated
/// directory, a torn last page and trailing garbage all fail here, at
/// open. Throws std::runtime_error with the database's usual
/// "PathLossDatabase: ..." messages; an older version's message names
/// `pathloss_db_tool --mode migrate-v3`.
[[nodiscard]] V3Directory parse_v3(const char* data, std::size_t available,
                                   std::uint64_t file_size,
                                   const std::string& path);

/// Reads `path`'s header, then the directory it announces — the only bytes
/// an open or a probe reads — and parses them with parse_v3. Sets
/// `file_bytes` to the real file size.
[[nodiscard]] V3Directory read_v3(const std::string& path,
                                  std::size_t& file_bytes);

}  // namespace magus::pathloss::format
