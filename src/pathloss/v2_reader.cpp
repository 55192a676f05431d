#include "pathloss/v2_reader.h"

#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "pathloss/format.h"

namespace magus::pathloss {

namespace {
constexpr std::uint32_t kVersionEager = 2;
}  // namespace

PathLossDatabase read_v2(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("PathLossDatabase: cannot open " + path);
  const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>()};
  std::size_t off = 0;
  const auto fail = [&](const std::string& what) {
    return std::runtime_error("PathLossDatabase: " + what + " in " + path);
  };
  const auto read = [&](auto& value, const std::string& context) {
    if (bytes.size() - off < sizeof(value)) throw fail(context);
    std::memcpy(&value, bytes.data() + off, sizeof(value));
    off += sizeof(value);
  };

  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  read(magic, "truncated header");
  read(version, "truncated header");
  if (magic != format::kMagic) throw fail("bad magic");
  if (version != kVersionEager) {
    throw fail("unsupported version " + std::to_string(version) +
               " (expected " + std::to_string(kVersionEager) + ")");
  }
  double min_x = 0.0;
  double min_y = 0.0;
  double cell = 0.0;
  std::int32_t cols = 0;
  std::int32_t rows = 0;
  std::uint64_t entry_count = 0;
  read(min_x, "truncated header");
  read(min_y, "truncated header");
  read(cell, "truncated header");
  read(cols, "truncated header");
  read(rows, "truncated header");
  if (!(cell > 0.0) || cols <= 0 || rows <= 0) {
    throw fail("invalid grid geometry");
  }
  read(entry_count, "truncated header");
  PathLossDatabase db{geo::GridMap{
      geo::Rect{{min_x, min_y}, {min_x + cols * cell, min_y + rows * cell}},
      cell}};

  for (std::uint64_t e = 0; e < entry_count; ++e) {
    const std::string entry =
        "entry " + std::to_string(e) + " of " + std::to_string(entry_count);
    std::int32_t geometry[6] = {};  // sector, tilt, col0, row0, wcols, wrows
    std::uint64_t checksum = 0;
    for (std::int32_t& field : geometry) read(field, "truncated " + entry);
    read(checksum, "truncated " + entry);
    const auto [sector, tilt, col0, row0, window_cols, window_rows] = geometry;
    // Bound the window by the grid, then by the bytes left, before
    // allocating: a corrupted size field must not become a huge allocation.
    if (window_cols < 0 || window_rows < 0 || window_cols > cols ||
        window_rows > rows) {
      throw fail("oversized window (" + entry + ")");
    }
    const std::size_t cells = static_cast<std::size_t>(window_cols) *
                              static_cast<std::size_t>(window_rows);
    const std::size_t window_bytes = cells * sizeof(float);
    if (bytes.size() - off < window_bytes) throw fail("truncated " + entry);
    std::vector<float> window(cells);
    if (cells > 0) {  // an empty vector's data() may be null
      std::memcpy(window.data(), bytes.data() + off, window_bytes);
    }
    off += window_bytes;
    SectorFootprint footprint;
    try {
      footprint = SectorFootprint{cols,        rows,        col0,
                                  row0,        window_cols, window_rows,
                                  std::move(window)};
    } catch (const std::invalid_argument&) {
      throw fail(entry + " does not fit the grid");
    }
    const auto gains = footprint.window();
    if (format::entry_checksum_raw(sector, tilt, col0, row0, window_cols,
                                   window_rows, gains.data(),
                                   gains.size() * sizeof(float)) != checksum) {
      throw fail("checksum mismatch (" + entry + ", sector " +
                 std::to_string(sector) + " tilt " + std::to_string(tilt) +
                 ")");
    }
    db.insert(sector, tilt, std::move(footprint));
  }
  // The header promised exactly entry_count entries; anything further is
  // corruption (e.g. a concatenated or doubly-written file).
  if (off != bytes.size()) {
    throw fail("trailing bytes after " + std::to_string(entry_count) +
               " entries");
  }
  return db;
}

}  // namespace magus::pathloss
