// The v3 page-aligned path-loss format and its zero-copy streaming
// provider: the eager load as owned copies of the mapped footprints, the
// probe's mapped/heap residency split, structural corruption caught at
// open (truncated directory, torn last page, trailing bytes), payload
// corruption caught on first touch (bit-flipped gain plane), save()'s
// atomic replace under a live mapping, the MAGUS_NO_MMAP fallback, and
// release/retouch bit-identity.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "pathloss/format.h"
#include "pathloss/mapped_database.h"
#include "test_helpers.h"

namespace magus::pathloss {
namespace {

/// Bitwise equality of two footprints: geometry, coverage and the raw
/// gain window (NaN-safe — memcmp, not float compare).
void expect_bit_identical(const SectorFootprint& a, const SectorFootprint& b) {
  ASSERT_EQ(a.window().size(), b.window().size());
  EXPECT_EQ(a.covered_count(), b.covered_count());
  if (a.window().empty()) return;  // an empty window's data() may be null
  EXPECT_EQ(0, std::memcmp(a.window().data(), b.window().data(),
                           a.window().size() * sizeof(float)));
}

/// Bitwise equality of the linear twins.
void expect_same_linear(const SectorFootprint& a, const SectorFootprint& b) {
  ASSERT_EQ(a.window_rows(), b.window_rows());
  for (std::int32_t row = 0; row < a.window_rows(); ++row) {
    const auto la = a.linear_row(row);
    const auto lb = b.linear_row(row);
    ASSERT_EQ(la.size(), lb.size());
    EXPECT_EQ(0, std::memcmp(la.data(), lb.data(), la.size() * sizeof(float)));
  }
}

class V3Format : public ::testing::Test {
 protected:
  V3Format() : grid_(geo::Rect{{0, 0}, {400, 300}}, 100.0), provider_(grid_) {
    const auto nan = std::numeric_limits<float>::quiet_NaN();
    for (const int tilt : {0, 1}) {
      std::vector<float> dense(12, nan);
      dense[1 * 4 + 1] = -80.0f - static_cast<float>(tilt);
      dense[1 * 4 + 2] = -90.0f - static_cast<float>(tilt);
      provider_.set_footprint(0, static_cast<radio::TiltIndex>(tilt), dense);
    }
    path_ = ::testing::TempDir() + "/magus_pl_v3_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    PathLossDatabase db{grid_};
    db.insert(0, 0, provider_.footprint(0, 0));
    db.insert(0, 1, provider_.footprint(0, 1));
    db.save(path_);
  }

  ~V3Format() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  }

  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Both readers must reject the file the same way; returns the eager
  /// loader's message.
  [[nodiscard]] std::string open_error() const {
    EXPECT_THROW((void)MappedPathLossDatabase{path_}, std::runtime_error);
    try {
      (void)PathLossDatabase::load(path_);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    ADD_FAILURE() << "load unexpectedly succeeded";
    return {};
  }

  geo::GridMap grid_;
  magus::testing::FakeProvider provider_;
  std::string path_;
};

TEST_F(V3Format, LoadOwnsCopiesOfTheMappedFootprints) {
  PathLossDatabase eager = PathLossDatabase::load(path_);
  MappedPathLossDatabase mapped{path_};
  for (const int tilt : {0, 1}) {
    const SectorFootprint& owned = eager.footprint(0, tilt);
    const SectorFootprint& borrowed = mapped.footprint(0, tilt);
    EXPECT_FALSE(owned.borrowed());
    EXPECT_NE(owned.window().data(), borrowed.window().data());
    expect_bit_identical(owned, borrowed);
    expect_same_linear(owned, borrowed);
  }
  // Owned windows + twins: twice the mapped provider's twin-only heap.
  if (mapped.using_mmap()) {
    EXPECT_EQ(eager.resident_bytes(), 2 * mapped.resident_bytes());
  }
}

TEST_F(V3Format, MappedMatchesEagerLoad) {
  PathLossDatabase eager = PathLossDatabase::load(path_);
  MappedPathLossDatabase mapped{path_};
  ASSERT_EQ(mapped.entry_count(), 2u);
  EXPECT_EQ(mapped.touched_count(), 0u);
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  EXPECT_EQ(mapped.grid().cell_count(), eager.grid().cell_count());
  EXPECT_TRUE(mapped.contains(0, 0));
  EXPECT_FALSE(mapped.contains(1, 0));
  for (const int tilt : {0, 1}) {
    expect_bit_identical(eager.footprint(0, tilt), mapped.footprint(0, tilt));
  }
  EXPECT_EQ(mapped.touched_count(), 2u);
  // The dB planes stay in the mapping: the mapped provider's heap is only
  // the linear twins, strictly less than the eager database's windows +
  // twins.
  if (mapped.using_mmap()) {
    EXPECT_LT(mapped.resident_bytes(), eager.resident_bytes());
    EXPECT_GT(mapped.mapped_bytes(), 0u);
  }
  EXPECT_THROW((void)mapped.footprint(5, 0), std::out_of_range);
}

TEST_F(V3Format, ProbeSplitsMappedVsHeapResidency) {
  const auto v3 = PathLossDatabase::probe(path_);
  ASSERT_TRUE(v3.ok) << v3.error;
  EXPECT_EQ(v3.version, format::kVersionMapped);
  EXPECT_EQ(v3.entry_count, 2u);
  EXPECT_GT(v3.mapped_bytes_estimate, 0u);
  EXPECT_GT(v3.heap_bytes_estimate, 0u);
  EXPECT_EQ(v3.resident_bytes_estimate,
            v3.mapped_bytes_estimate + v3.heap_bytes_estimate);

  // An older version is not openable; the probe says to regenerate it.
  std::string bytes = read_file();
  const std::uint32_t old_version = 2;
  std::memcpy(bytes.data() + sizeof(format::kMagic), &old_version,
              sizeof old_version);
  write_file(bytes);
  const auto v2 = PathLossDatabase::probe(path_);
  EXPECT_FALSE(v2.ok);
  EXPECT_NE(v2.error.find("unsupported version 2"), std::string::npos)
      << v2.error;
  EXPECT_NE(v2.error.find("regenerate the file from its seed"),
            std::string::npos)
      << v2.error;
  // A failed probe still reports the version it read, so a caller can
  // tell an older format from a damaged v3 file.
  EXPECT_EQ(v2.version, 2u);
}

TEST_F(V3Format, ProbeOfADamagedFileKeepsItsVersion) {
  const std::string bytes = read_file();
  write_file(bytes.substr(0, bytes.size() - 100));
  const auto torn = PathLossDatabase::probe(path_);
  EXPECT_FALSE(torn.ok);
  EXPECT_NE(torn.error.find("torn payload"), std::string::npos) << torn.error;
  EXPECT_EQ(torn.version, format::kVersionMapped);

  write_file("not a path-loss database");
  const auto foreign = PathLossDatabase::probe(path_);
  EXPECT_FALSE(foreign.ok);
  EXPECT_EQ(foreign.version, 0u);
}

TEST_F(V3Format, TruncatedDirectoryRejectedAtOpen) {
  const std::string bytes = read_file();
  // Cut mid-directory: past the header, short of the first plane.
  write_file(bytes.substr(0, format::kHeaderBytesV3 + 10));
  EXPECT_NE(open_error().find("truncated directory"), std::string::npos);
}

TEST_F(V3Format, TornLastPageRejectedAtOpen) {
  const std::string bytes = read_file();
  // Drop the tail of the last gain plane's page — the crash-mid-write
  // shape. The directory is intact, so only the payload_end check can
  // catch this, and it must catch it at open (a mapped read past EOF
  // would SIGBUS).
  write_file(bytes.substr(0, bytes.size() - 100));
  EXPECT_NE(open_error().find("torn payload"), std::string::npos);
}

TEST_F(V3Format, TrailingBytesRejected) {
  write_file(read_file() + "garbage");
  EXPECT_NE(open_error().find("trailing bytes"), std::string::npos);
}

TEST_F(V3Format, BitFlipInPlaneCaughtOnFirstTouchNotOpen) {
  // Find entry (0, 1)'s plane through the real directory, then flip one
  // payload byte.
  std::string bytes = read_file();
  const format::V3Directory dir = format::parse_v3(
      bytes.data(), bytes.size(), bytes.size(), path_);
  const format::V3Entry* victim = nullptr;
  for (const format::V3Entry& entry : dir.entries) {
    if (entry.sector == 0 && entry.tilt == 1) victim = &entry;
  }
  ASSERT_NE(victim, nullptr);
  bytes[victim->data_offset + 3] ^= 0x40;
  write_file(bytes);

  // The eager loader checksums everything up front and rejects.
  try {
    (void)PathLossDatabase::load(path_);
    ADD_FAILURE() << "eager load unexpectedly succeeded";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string{error.what()}.find("checksum mismatch"),
              std::string::npos);
  }

  // The streaming provider opens fine (structure is sound), serves the
  // clean entry, and fails exactly the corrupted one — on every touch,
  // since a failed materialization must not be cached.
  MappedPathLossDatabase mapped{path_};
  expect_bit_identical(provider_.footprint(0, 0), mapped.footprint(0, 0));
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      (void)mapped.footprint(0, 1);
      ADD_FAILURE() << "touch of corrupted entry succeeded";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string{error.what()}.find("checksum mismatch"),
                std::string::npos);
    }
  }
  EXPECT_EQ(mapped.touched_count(), 1u);
}

TEST_F(V3Format, SaveReplacesTheFileWithoutDisturbingALiveMapping) {
  // Re-saving over a file that is still open must not disturb the open
  // handle: a mapping keeps the old inode mapped, and the positioned-read
  // fallback (MAGUS_NO_MMAP=1) reads it through the descriptor it holds.
  // Neither leg touches an entry before the save, so every first touch
  // reads the old inode after the path moved on.
  for (const bool no_mmap : {false, true}) {
    if (no_mmap) ::setenv("MAGUS_NO_MMAP", "1", 1);
    std::unique_ptr<MappedPathLossDatabase> old_handle;
    try {
      old_handle = std::make_unique<MappedPathLossDatabase>(path_);
    } catch (...) {
      ::unsetenv("MAGUS_NO_MMAP");
      throw;
    }
    ::unsetenv("MAGUS_NO_MMAP");
    if (no_mmap) {
      EXPECT_FALSE(old_handle->using_mmap());
    }

    PathLossDatabase smaller{grid_};
    std::vector<float> dense(12, std::numeric_limits<float>::quiet_NaN());
    dense[0] = -70.0f;
    smaller.insert(3, 0, SectorFootprint{std::move(dense), 4, 3});
    smaller.save(path_);
    EXPECT_LT(std::filesystem::file_size(path_), old_handle->file_bytes());
    EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));

    for (const int tilt : {0, 1}) {
      expect_bit_identical(provider_.footprint(0, tilt),
                           old_handle->footprint(0, tilt));
      expect_same_linear(provider_.footprint(0, tilt),
                         old_handle->footprint(0, tilt));
    }
    // The path itself now holds the new database.
    const PathLossDatabase reloaded = PathLossDatabase::load(path_);
    EXPECT_EQ(reloaded.entry_count(), 1u);
    EXPECT_TRUE(reloaded.contains(3, 0));

    // Put the original back for the next leg.
    PathLossDatabase original{grid_};
    original.insert(0, 0, provider_.footprint(0, 0));
    original.insert(0, 1, provider_.footprint(0, 1));
    original.save(path_);
  }
}

TEST_F(V3Format, NoMmapFallbackServesIdenticalFootprints) {
  MappedPathLossDatabase mapped{path_};
  ::setenv("MAGUS_NO_MMAP", "1", 1);
  try {
    MappedPathLossDatabase fallback{path_};
    EXPECT_FALSE(fallback.using_mmap());
    EXPECT_EQ(fallback.mapped_bytes(), 0u);
    for (const int tilt : {0, 1}) {
      expect_bit_identical(mapped.footprint(0, tilt),
                           fallback.footprint(0, tilt));
    }
    // On the fallback the dB plane copies count as heap.
    EXPECT_GT(fallback.resident_bytes(), mapped.resident_bytes());
  } catch (...) {
    ::unsetenv("MAGUS_NO_MMAP");
    throw;
  }
  ::unsetenv("MAGUS_NO_MMAP");
}

TEST_F(V3Format, ReleaseResidencyRematerializesBitIdentically) {
  MappedPathLossDatabase mapped{path_};
  const SectorFootprint* fp0 = &mapped.footprint(0, 0);
  const SectorFootprint* fp1 = &mapped.footprint(0, 1);
  const std::size_t full_bytes = mapped.resident_bytes();
  std::vector<float> gains(fp0->window().begin(), fp0->window().end());
  ASSERT_GT(full_bytes, 0u);

  const std::size_t freed = mapped.release_residency();
  EXPECT_EQ(freed, full_bytes);
  EXPECT_EQ(mapped.resident_bytes(), 0u);
  EXPECT_EQ(mapped.touched_count(), 0u);
  // Releasing twice is a no-op.
  EXPECT_EQ(mapped.release_residency(), 0u);

  // Re-touch: same address (the MarketStore's cached pointers depend on
  // it), same bytes, same heap charge.
  const SectorFootprint* again0 = &mapped.footprint(0, 0);
  EXPECT_EQ(again0, fp0);
  EXPECT_EQ(&mapped.footprint(0, 1), fp1);
  EXPECT_EQ(mapped.resident_bytes(), full_bytes);
  EXPECT_EQ(0, std::memcmp(gains.data(), again0->window().data(),
                           gains.size() * sizeof(float)));
}

}  // namespace
}  // namespace magus::pathloss
