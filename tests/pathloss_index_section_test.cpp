// The coverage-index tail of a v3 path-loss file under hostile bytes, in
// the style of the journal's byte-offset fuzz: every byte of the section
// header and sector list flipped, a stride of flips through the arrays,
// the file cut at every page inside the section, and payload_end pointed
// short of the section and past it. Every case must fail with a specific
// message — at open ("torn payload", "trailing bytes") or on the first
// coverage_section() request ("coverage index ...") — and nothing may read
// out of bounds (the suite runs under ASan/UBSan in scripts/verify.sh).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "pathloss/format.h"
#include "pathloss/mapped_database.h"

namespace magus::pathloss {
namespace {

constexpr std::int32_t kCols = 48;
constexpr std::int32_t kRows = 40;
constexpr int kSectors = 10;

class IndexSectionFuzz : public ::testing::Test {
 protected:
  IndexSectionFuzz() : grid_(geo::Rect{{0, 0}, {4800, 4000}}, 100.0) {
    // Ten sectors with random windows and scattered holes; sector 3 also
    // has a tilt-1 entry, which the section does not index.
    std::mt19937 rng{7};
    std::uniform_real_distribution<float> gain{-140.0f, -60.0f};
    std::uniform_int_distribution<int> extent{12, 36};
    PathLossDatabase db{grid_};
    for (int s = 0; s < kSectors; ++s) {
      const int w = extent(rng);
      const int h = extent(rng);
      const int c0 = std::uniform_int_distribution<int>{0, kCols - w}(rng);
      const int r0 = std::uniform_int_distribution<int>{0, kRows - h}(rng);
      std::vector<float> dense(static_cast<std::size_t>(kCols * kRows),
                               std::numeric_limits<float>::quiet_NaN());
      for (int r = r0; r < r0 + h; ++r) {
        for (int c = c0; c < c0 + w; ++c) {
          if (rng() % 7 != 0) {
            dense[static_cast<std::size_t>(r * kCols + c)] = gain(rng);
          }
        }
      }
      db.insert(s, 0, SectorFootprint{dense, kCols, kRows});
      if (s == 3) db.insert(s, 1, SectorFootprint{dense, kCols, kRows});
    }
    path_ = ::testing::TempDir() + "/magus_index_fuzz_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".v3";
    db.save(path_);
    original_ = read_file();
    std::size_t file_bytes = 0;
    const format::V3Directory dir = format::read_v3(path_, file_bytes);
    planes_end_ = dir.planes_end;
    index_offset_ = dir.index_offset();
    payload_end_ = dir.payload_end;
  }

  ~IndexSectionFuzz() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  }

  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Overwrites one byte of the file in place.
  void poke(std::uint64_t offset, char value) const {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&value, 1);
  }

  /// The header's payload_end field, rewritten in `bytes`.
  static void set_payload_end(std::string& bytes, std::uint64_t value) {
    std::memcpy(bytes.data() + format::kHeaderPrefixBytes + 8, &value,
                sizeof value);
  }

  /// Opens the file and requests its section; returns the message of the
  /// failure, wherever it came from, or "" when both succeeded.
  [[nodiscard]] std::string failure() const {
    try {
      MappedPathLossDatabase db{path_};
      (void)db.coverage_section();
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    return {};
  }

  /// The section request must fail (the open itself succeeds: the tail is
  /// not read at open) with a "coverage index" message.
  void expect_section_failure(const std::string& label) const {
    std::unique_ptr<MappedPathLossDatabase> db;
    try {
      db = std::make_unique<MappedPathLossDatabase>(path_);
    } catch (const std::runtime_error& error) {
      ADD_FAILURE() << label << ": open failed: " << error.what();
      return;
    }
    try {
      (void)db->coverage_section();
      ADD_FAILURE() << label << ": section accepted";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string{error.what()}.find("coverage index"),
                std::string::npos)
          << label << ": " << error.what();
    }
  }

  geo::GridMap grid_;
  std::string path_;
  std::string original_;
  std::uint64_t planes_end_ = 0;
  std::uint64_t index_offset_ = 0;
  std::uint64_t payload_end_ = 0;
};

TEST_F(IndexSectionFuzz, PristineSectionIsServedAndChecked) {
  ASSERT_GT(payload_end_, index_offset_ + format::kPageBytes)
      << "the fixture's section must span several pages";
  ASSERT_LT(planes_end_, index_offset_)
      << "the last plane must end inside a page";
  EXPECT_EQ(original_.size(), payload_end_);
  MappedPathLossDatabase db{path_};
  const format::IndexSection* section = db.coverage_section();
  ASSERT_NE(section, nullptr);
  EXPECT_EQ(section->sectors.size(), static_cast<std::size_t>(kSectors));
  EXPECT_EQ(section->row_start.size(),
            static_cast<std::size_t>(kCols * kRows) + 1);
  EXPECT_EQ(section->section_bytes(), payload_end_ - index_offset_);
  EXPECT_EQ(db.coverage_section(), section);  // checked once, then served
}

TEST_F(IndexSectionFuzz, EveryHeaderAndSectorListByteFlipIsRejected) {
  const std::uint64_t end =
      index_offset_ + format::kIndexHeaderBytes + kSectors * 4;
  for (const bool no_mmap : {false, true}) {
    if (no_mmap) ::setenv("MAGUS_NO_MMAP", "1", 1);
    for (std::uint64_t at = index_offset_; at < end; ++at) {
      for (const unsigned mask : {0x01u, 0x80u}) {
        const char byte = original_[at];
        poke(at, static_cast<char>(byte ^ static_cast<char>(mask)));
        expect_section_failure("byte " + std::to_string(at - index_offset_) +
                               " mask " + std::to_string(mask) +
                               (no_mmap ? " no-mmap" : " mmap"));
        poke(at, byte);
      }
    }
    if (no_mmap) ::unsetenv("MAGUS_NO_MMAP");
  }
}

TEST_F(IndexSectionFuzz, StrideOfArrayByteFlipsIsRejected) {
  const std::uint64_t arrays =
      index_offset_ + format::kIndexHeaderBytes + kSectors * 4;
  int cases = 0;
  for (std::uint64_t at = arrays; at < payload_end_; at += 251) {
    const char byte = original_[at];
    poke(at, static_cast<char>(byte ^ 0x10));
    expect_section_failure("array byte " + std::to_string(at - arrays));
    poke(at, byte);
    ++cases;
  }
  EXPECT_GT(cases, 100);
  // The last byte of the last array too.
  const char last = original_[payload_end_ - 1];
  poke(payload_end_ - 1, static_cast<char>(last ^ 0x01));
  expect_section_failure("last byte");
}

TEST_F(IndexSectionFuzz, TruncationAtEveryPageInsideTheSection) {
  for (std::uint64_t cut = index_offset_; cut < payload_end_;
       cut += format::kPageBytes) {
    const std::string label = "cut at " + std::to_string(cut);
    // A plain cut: the header still promises the full payload.
    write_file(original_.substr(0, cut));
    const std::string torn = failure();
    EXPECT_NE(torn.find("torn payload"), std::string::npos)
        << label << ": " << torn;
    // A cut whose header was resealed to the new length opens, and the
    // section it points at is too short for its counts.
    std::string resealed = original_.substr(0, cut);
    set_payload_end(resealed, cut);
    write_file(resealed);
    expect_section_failure(label + " resealed");
  }
}

TEST_F(IndexSectionFuzz, PayloadEndShortOfAndPastTheSection) {
  // Short of the section, over the full file: trailing bytes at open.
  for (const std::uint64_t end :
       {planes_end_ + 1, index_offset_, index_offset_ + 8,
        index_offset_ + format::kIndexHeaderBytes, payload_end_ - 1}) {
    std::string bytes = original_;
    set_payload_end(bytes, end);
    write_file(bytes);
    const std::string error = failure();
    EXPECT_NE(error.find("trailing bytes"), std::string::npos)
        << "payload_end " << end << ": " << error;
  }
  // Short of the section, over a file cut to match: the section request
  // finds too few bytes.
  for (const std::uint64_t end :
       {planes_end_ + 1, index_offset_, index_offset_ + 8,
        index_offset_ + format::kIndexHeaderBytes, payload_end_ - 1}) {
    std::string bytes = original_.substr(0, end);
    set_payload_end(bytes, end);
    write_file(bytes);
    expect_section_failure("payload_end " + std::to_string(end) + " cut");
  }
  // Past the section: torn payload at open.
  for (const std::uint64_t end :
       {payload_end_ + 1, payload_end_ + format::kPageBytes,
        std::numeric_limits<std::uint64_t>::max()}) {
    std::string bytes = original_;
    set_payload_end(bytes, end);
    write_file(bytes);
    const std::string error = failure();
    EXPECT_NE(error.find("torn payload"), std::string::npos)
        << "payload_end " << end << ": " << error;
  }
  // Cut back to the last plane: an old file without the section.
  std::string old = original_.substr(0, planes_end_);
  set_payload_end(old, planes_end_);
  write_file(old);
  MappedPathLossDatabase db{path_};
  EXPECT_EQ(db.coverage_section(), nullptr);
}

TEST_F(IndexSectionFuzz, EagerLoadRejectsADamagedSection) {
  const std::uint64_t at = payload_end_ - 5;
  poke(at, static_cast<char>(original_[at] ^ 0x04));
  try {
    (void)PathLossDatabase::load(path_);
    ADD_FAILURE() << "load accepted a damaged section";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string{error.what()}.find("coverage index checksum"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace magus::pathloss
