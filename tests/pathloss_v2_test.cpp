// The serial reader of the retired v2 format, on the committed fixture
// tests/fixtures/pathloss_v2.pldb (written by the last v2 writer): its
// decoded windows are pinned by a fingerprint, every damaged copy is
// rejected with its specific message, and migrating it (decode, then
// save()) yields a mappable v3 file with the same footprints.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "pathloss/mapped_database.h"
#include "pathloss/v2_reader.h"
#include "util/checksum.h"

namespace magus::pathloss {
namespace {

// Fixture layout: an 8 x 6 grid of 100 m cells at (1000, 2000); a 52-byte
// header (magic, version at byte 8, min_x, min_y, cell, cols, rows,
// entry_count), then four entries in key order, each 32 bytes of sector,
// tilt, col0, row0, window_cols, window_rows (i32) + checksum (u64),
// followed by its gains:
//   entry 0 (0, 0)  window 5x4 at (1, 1)  bytes  52..164
//   entry 1 (0, 1)  window 5x4 at (0, 2)  bytes 164..276
//   entry 2 (3, -2) window 6x6 at (2, 0)  bytes 276..452
//   entry 3 (5, 0)  empty window          bytes 452..484
constexpr std::size_t kFixtureBytes = 484;
constexpr std::size_t kEntry0 = 52;
constexpr std::size_t kEntry3 = 452;
constexpr std::uint64_t kFixtureFingerprint = 17415919727845461095ULL;

const std::vector<std::pair<int, int>> kKeys = {
    {0, 0}, {0, 1}, {3, -2}, {5, 0}};

/// FNV-1a over every entry's geometry and raw gain window, in key order.
[[nodiscard]] std::uint64_t windows_fingerprint(PathLossProvider& db) {
  std::uint64_t fp = util::kFnv1aOffsetBasis;
  for (const auto& [sector, tilt] : kKeys) {
    const SectorFootprint& f = db.footprint(sector, tilt);
    const std::int32_t geometry[] = {sector,          tilt,
                                     f.col0(),        f.row0(),
                                     f.window_cols(), f.window_rows()};
    fp = util::fnv1a(geometry, sizeof(geometry), fp);
    fp = util::fnv1a(f.window().data(), f.window().size() * sizeof(float),
                     fp);
  }
  return fp;
}

class V2Reader : public ::testing::Test {
 protected:
  V2Reader()
      : path_(::testing::TempDir() + "/magus_pl_v2_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".pldb") {
    std::filesystem::copy_file(
        MAGUS_V2_FIXTURE, path_,
        std::filesystem::copy_options::overwrite_existing);
  }

  ~V2Reader() override { std::filesystem::remove(path_); }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  }

  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  void patch_i32(std::size_t offset, std::int32_t value) const {
    std::string bytes = read_file();
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    write_file(bytes);
  }

  /// Decodes the copy and returns the error message, failing on success.
  [[nodiscard]] std::string read_error() const {
    try {
      (void)read_v2(path_);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    ADD_FAILURE() << "read_v2 unexpectedly succeeded";
    return {};
  }

  std::string path_;
};

TEST_F(V2Reader, FixtureDecodesToPinnedFingerprint) {
  ASSERT_EQ(read_file().size(), kFixtureBytes);
  PathLossDatabase db = read_v2(path_);
  EXPECT_EQ(db.entry_count(), kKeys.size());
  EXPECT_EQ(db.grid().cols(), 8);
  EXPECT_EQ(db.grid().rows(), 6);
  EXPECT_EQ(db.grid().cell_size_m(), 100.0);
  EXPECT_EQ(db.grid().area().min.x_m, 1000.0);
  EXPECT_EQ(db.grid().area().min.y_m, 2000.0);
  EXPECT_EQ(db.footprint(5, 0).window().size(), 0u);
  EXPECT_EQ(windows_fingerprint(db), kFixtureFingerprint);
}

TEST_F(V2Reader, TruncatedHeaderRejected) {
  write_file(read_file().substr(0, kEntry0 / 2));
  EXPECT_NE(read_error().find("truncated header"), std::string::npos);
}

TEST_F(V2Reader, UnsupportedVersionRejected) {
  std::string bytes = read_file();
  bytes[8] = 1;  // little-endian version field -> v1
  write_file(bytes);
  EXPECT_NE(read_error().find("unsupported version 1"), std::string::npos);
}

TEST_F(V2Reader, TruncatedEntryRejected) {
  // Clip entry 2's last gains (and drop entry 3).
  write_file(read_file().substr(0, kEntry3 - 2));
  EXPECT_NE(read_error().find("truncated entry 2 of 4"), std::string::npos);
}

TEST_F(V2Reader, BitFlipInGainsFailsChecksum) {
  std::string bytes = read_file();
  bytes[kEntry3 - 3] = static_cast<char>(bytes[kEntry3 - 3] ^ 0x10);
  write_file(bytes);
  const std::string error = read_error();
  EXPECT_NE(error.find("checksum mismatch (entry 2 of 4, sector 3 tilt -2)"),
            std::string::npos)
      << error;
}

TEST_F(V2Reader, OversizedWindowRejectedBeforeAllocation) {
  patch_i32(kEntry0 + 16, 1 << 28);  // entry 0's window_cols
  EXPECT_NE(read_error().find("oversized window (entry 0 of 4)"),
            std::string::npos);
}

TEST_F(V2Reader, WindowOutsideGridRejected) {
  // col0 4 + window_cols 5 overruns the 8-wide grid.
  patch_i32(kEntry0 + 8, 4);
  const std::string error = read_error();
  EXPECT_NE(error.find("entry 0 of 4 does not fit the grid"),
            std::string::npos)
      << error;
}

TEST_F(V2Reader, TrailingBytesRejected) {
  write_file(read_file() + "extra");
  EXPECT_NE(read_error().find("trailing bytes after 4 entries"),
            std::string::npos);
}

TEST_F(V2Reader, MigrateV3InPlaceIsMappableAndBitIdentical) {
  // What `pathloss_db_tool --mode migrate-v3` does: decode, then save()
  // over the same path.
  PathLossDatabase decoded = read_v2(path_);
  decoded.save(path_);
  const PathLossDatabase::Probe probe = PathLossDatabase::probe(path_);
  ASSERT_TRUE(probe.ok) << probe.error;
  EXPECT_EQ(probe.version, format::kVersionMapped);
  EXPECT_EQ(probe.entry_count, kKeys.size());

  MappedPathLossDatabase mapped{path_};
  EXPECT_EQ(windows_fingerprint(mapped), kFixtureFingerprint);
  PathLossDatabase loaded = PathLossDatabase::load(path_);
  EXPECT_EQ(windows_fingerprint(loaded), kFixtureFingerprint);
  EXPECT_EQ(loaded.resident_bytes(), decoded.resident_bytes());

  // The v2 reader does not take the migrated file for v2.
  EXPECT_NE(read_error().find("unsupported version 3 (expected 2)"),
            std::string::npos);
}

}  // namespace
}  // namespace magus::pathloss
