// On-disk layout of the path-loss database file, shared by the writer and
// the eager loader (database.cpp), the mmap provider (mapped_database.cpp)
// and the db tool.
//
// v3 ("MAGUSPL1", version 3) is the only format: a mappable section-table
// layout.
//
//   [ header  | prefix + directory checksum + payload end            ]
//   [ directory | entry_count x { 6 geometry i32, data_offset u64,  ]
//   [             entry checksum u64 }                              ]
//   [ ...zero padding to a 4096-byte page boundary...               ]
//   [ gain plane 0 | raw little-endian floats                       ]
//   [ ...zero padding...                                            ]
//   [ gain plane 1 ]  ...
//   [ ...zero padding to the page boundary after the last plane...  ]
//   [ coverage-index section (optional tail, runs to payload end)   ]
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
// The coverage-index section holds model::CoverageIndex built over the
// file's own tilt-0 entries in ascending sector id, so a cold open binds
// the index instead of rebuilding it:
//
//   [ tag "MAGUSIX1" u64 | checksum u64 | cells u64 | entries u64 |   ]
//   [ sectors u64 | sector ids i32 x sectors (ascending)             ]
//   [ row_start u32 x (cells + 1) | entry_sector i32 x entries |      ]
//   [ gain f32 x entries | linear f32 x entries |                     ]
//   [ ranked_sector i32 x entries | ranked_col u32 x entries |        ]
//   [ ranked_bound f32 x entries                                      ]
//
// The seven arrays are CoverageIndex's, byte for byte. The checksum is
// util::hash64 chained over the three counts, the sector ids and the seven
// arrays in that order. The section is checked (checksum, then structure)
// on first request, like a gain plane on first touch. A file without the
// tail — written before the section existed, or holding no tilt-0 entry —
// has payload_end at the end of its last plane and opens as before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "util/checksum.h"

namespace magus::pathloss::format {

inline constexpr std::uint64_t kMagic = 0x4D41475553504C31ULL;  // "MAGUSPL1"
inline constexpr std::uint32_t kVersionMapped = 3;

/// Header prefix: magic, version, min_x, min_y, cell_size, cols, rows,
/// entry_count.
inline constexpr std::size_t kHeaderPrefixBytes =
    8 + 4 + 8 + 8 + 8 + 4 + 4 + 8;
/// Then the directory checksum and the payload end offset.
inline constexpr std::size_t kHeaderBytesV3 = kHeaderPrefixBytes + 8 + 8;
/// One v3 directory record: sector, tilt, col0, row0, window_cols,
/// window_rows, data_offset, entry checksum.
inline constexpr std::size_t kDirEntryBytes = 6 * 4 + 8 + 8;
/// Gain planes start on page boundaries.
inline constexpr std::size_t kPageBytes = 4096;

[[nodiscard]] constexpr std::uint64_t align_up_page(std::uint64_t offset) {
  return (offset + (kPageBytes - 1)) & ~std::uint64_t{kPageBytes - 1};
}

/// FNV-1a over an entry's geometry ints then its raw gain bytes.
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
  /// Total file size the header promises: the end of the coverage-index
  /// section when the file has one, else the end of the last gain plane.
  std::uint64_t payload_end = 0;
  /// End of the last gain plane (the directory end when no plane exists).
  std::uint64_t planes_end = 0;
  std::vector<V3Entry> entries;

  /// True when bytes follow the last plane: the coverage-index section.
  [[nodiscard]] bool has_index_section() const {
    return payload_end > planes_end;
  }
  /// Where the section starts: the page boundary after the last plane.
  [[nodiscard]] std::uint64_t index_offset() const {
    return align_up_page(planes_end);
  }
};

inline constexpr std::uint64_t kIndexTag = 0x4D41475553495831ULL;  // "MAGUSIX1"
/// The tilt whose entries the section indexes (model::CoverageIndex::kTilt).
inline constexpr std::int32_t kIndexTilt = 0;
/// Section header: tag, checksum, cells, entries, sectors.
inline constexpr std::size_t kIndexHeaderBytes = 5 * 8;

/// A view of a coverage-index section: the sector ids it was built over
/// and model::CoverageIndex's seven arrays (see the layout above).
struct IndexSection {
  std::span<const std::int32_t> sectors;
  std::span<const std::uint32_t> row_start;
  std::span<const std::int32_t> entry_sector;
  std::span<const float> gain;
  std::span<const float> linear;
  std::span<const std::int32_t> ranked_sector;
  std::span<const std::uint32_t> ranked_col;
  std::span<const float> ranked_bound;

  /// Bytes of the seven arrays: what the model charges a bound index.
  [[nodiscard]] std::size_t array_bytes() const;
  /// Bytes the section takes on disk, header included.
  [[nodiscard]] std::size_t section_bytes() const {
    return kIndexHeaderBytes + sectors.size_bytes() + array_bytes();
  }
};

/// True when `a` and `b` hold the same seven arrays, byte for byte (their
/// sector lists are not compared).
[[nodiscard]] bool same_arrays(const IndexSection& a, const IndexSection& b);

/// The stored checksum of `section`: util::hash64 chained over its counts,
/// sector ids and arrays.
[[nodiscard]] std::uint64_t index_checksum(const IndexSection& section);

/// Writes `section` (header, sector ids, arrays) at the stream position.
void write_index_section(std::ostream& out, const IndexSection& section);

/// The section header's counts, read without any check (for the db tool's
/// inventory). `data` must hold kIndexHeaderBytes.
struct IndexHeader {
  std::uint64_t tag = 0;
  std::uint64_t checksum = 0;
  std::uint64_t cells = 0;
  std::uint64_t entries = 0;
  std::uint64_t sectors = 0;
};
[[nodiscard]] IndexHeader read_index_header(const std::byte* data);

/// Checks the section in `data[0, bytes)` — the bytes from `dir`'s
/// index_offset() to its payload end — and returns a view into `data`.
/// `data` must be 4-byte aligned. Checks, in order: the length holds a
/// header; the tag; the cell count equals the grid's; the length equals
/// what the counts promise; the checksum; the sector list equals
/// `tilt0_sectors` (the file's tilt-0 sector ids, ascending); row_start
/// runs monotone from 0 to the entry count; every ranked_col lies inside
/// its own row; every sector id lies in the listed range. Nothing past the
/// header is read before the length check passes. Throws
/// std::runtime_error naming "coverage index" and the failed check.
[[nodiscard]] IndexSection parse_index_section(
    const std::byte* data, std::uint64_t bytes, std::int64_t grid_cells,
    std::span<const std::int32_t> tilt0_sectors, const std::string& path);

/// Parses and structurally validates a v3 header + directory. `data` must
/// hold at least the header and directory bytes (callers that stream only
/// the front of the file read kHeaderBytesV3, then the directory);
/// `file_size` is the real on-disk size. Validates the magic/version/grid,
/// the directory checksum, that every window fits the grid, that every
/// plane's extent lies inside [directory end, payload_end] on a page
/// boundary, and that payload_end equals file_size — so a truncated
/// directory, a torn last page and trailing garbage all fail here, at
/// open. Bytes between the last plane and payload_end are the optional
/// coverage-index section, checked later by parse_index_section. Throws
/// std::runtime_error with the database's usual "PathLossDatabase: ..."
/// messages; an older version's message says to regenerate the file.
[[nodiscard]] V3Directory parse_v3(const char* data, std::size_t available,
                                   std::uint64_t file_size,
                                   const std::string& path);

/// Reads `path`'s header, then the directory it announces — the only bytes
/// an open or a probe reads — and parses them with parse_v3. Sets
/// `file_bytes` to the real file size.
[[nodiscard]] V3Directory read_v3(const std::string& path,
                                  std::size_t& file_bytes);

}  // namespace magus::pathloss::format
