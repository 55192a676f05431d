#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "pathloss/builder.h"
#include "pathloss/database.h"
#include "pathloss/footprint.h"
#include "pathloss/format.h"
#include "pathloss/parallel_builder.h"
#include "pathloss/tilt_delta.h"
#include "test_helpers.h"
#include "util/checksum.h"
#include "util/rng.h"

namespace magus::pathloss {
namespace {

TEST(Footprint, WindowExtraction) {
  // 4x3 grid; coverage only in cells (1,1) and (2,1).
  const auto nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> dense(12, nan);
  dense[1 * 4 + 1] = -80.0f;
  dense[1 * 4 + 2] = -90.0f;
  const SectorFootprint fp{std::move(dense), 4, 3};
  EXPECT_EQ(fp.col0(), 1);
  EXPECT_EQ(fp.row0(), 1);
  EXPECT_EQ(fp.window_cols(), 2);
  EXPECT_EQ(fp.window_rows(), 1);
  EXPECT_EQ(fp.covered_count(), 2u);
  EXPECT_TRUE(fp.covers(5));
  EXPECT_TRUE(fp.covers(6));
  EXPECT_FALSE(fp.covers(0));
  EXPECT_FALSE(fp.covers(7));
  EXPECT_FLOAT_EQ(fp.gain_db(5), -80.0f);
  EXPECT_DOUBLE_EQ(fp.gain_or_ninf_db(0),
                   -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(fp.peak_gain_db(), -80.0);
}

TEST(Footprint, FloorFiltersWeakCells) {
  std::vector<float> dense = {-60.0f, -171.0f, SectorFootprint::kFloorDb,
                              -169.9f};
  const SectorFootprint fp{std::move(dense), 4, 1};
  EXPECT_TRUE(fp.covers(0));
  EXPECT_FALSE(fp.covers(1));   // below floor
  EXPECT_FALSE(fp.covers(2));   // at floor
  EXPECT_TRUE(fp.covers(3));
  EXPECT_EQ(fp.covered_count(), 2u);
}

TEST(Footprint, EmptyFootprint) {
  std::vector<float> dense(6, std::numeric_limits<float>::quiet_NaN());
  const SectorFootprint fp{std::move(dense), 3, 2};
  EXPECT_EQ(fp.covered_count(), 0u);
  EXPECT_FALSE(fp.covers(0));
  int visits = 0;
  fp.for_each_covered([&](geo::GridIndex, float) { ++visits; });
  EXPECT_EQ(visits, 0);
}

TEST(Footprint, ForEachVisitsExactlyCoveredCells) {
  const auto nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> dense(25, nan);
  dense[7] = -70.0f;
  dense[13] = -75.0f;
  dense[24] = -80.0f;
  const SectorFootprint fp{std::move(dense), 5, 5};
  std::vector<std::pair<geo::GridIndex, float>> visited;
  fp.for_each_covered(
      [&](geo::GridIndex g, float gain) { visited.push_back({g, gain}); });
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0].first, 7);
  EXPECT_EQ(visited[1].first, 13);
  EXPECT_EQ(visited[2].first, 24);
  EXPECT_FLOAT_EQ(visited[2].second, -80.0f);
}

TEST(Footprint, WindowConstructorValidation) {
  EXPECT_THROW(SectorFootprint(10, 10, 5, 5, 6, 6, std::vector<float>(36)),
               std::invalid_argument);  // window sticks out of the grid
  EXPECT_THROW(SectorFootprint(10, 10, 0, 0, 2, 2, std::vector<float>(3)),
               std::invalid_argument);  // wrong storage size
}

TEST(TiltDelta, UptiltHelpsFarHurtsNear) {
  const TiltDeltaModel model{radio::AntennaParams{}, 30.0};
  // Uptilt = negative tilt index.
  EXPECT_GT(model.delta_db(5000.0, 0, -2), 0.0);   // far: gains
  EXPECT_LT(model.delta_db(120.0, 0, -2), 0.0);    // near: loses
  EXPECT_DOUBLE_EQ(model.delta_db(1000.0, 1, 1), 0.0);
  // Symmetric inverse: going back cancels.
  EXPECT_NEAR(model.delta_db(3000.0, 0, -2) + model.delta_db(3000.0, -2, 0),
              0.0, 1e-9);
}

class BuilderTest : public ::testing::Test {
 protected:
  BuilderTest()
      : terrain_(3, flat()),
        grid_(geo::Rect{{0, 0}, {4000, 4000}}, 100.0),
        cache_(terrain_, grid_),
        propagation_(&terrain_, radio::SpmParams{}),
        builder_(&propagation_, &cache_, 3000.0) {}

  static terrain::TerrainParams flat() {
    terrain::TerrainParams params;
    params.elevation_range_m = 0.0;
    params.shadowing_stddev_db = 0.0;
    return params;
  }

  [[nodiscard]] net::Sector make_sector() const {
    net::Sector sector;
    sector.id = 0;
    sector.position = {2000.0, 2000.0};
    sector.azimuth_deg = 0.0;
    sector.height_m = 30.0;
    return sector;
  }

  terrain::Terrain terrain_;
  geo::GridMap grid_;
  terrain::TerrainGridCache cache_;
  radio::PropagationModel propagation_;
  FootprintBuilder builder_;
};

TEST_F(BuilderTest, RangeCutoffBoundsWindow) {
  const auto fp = builder_.build(make_sector(), 0);
  EXPECT_GT(fp.covered_count(), 0u);
  fp.for_each_covered([&](geo::GridIndex g, float) {
    EXPECT_LE(geo::distance_m(grid_.center_of(g), geo::Point{2000.0, 2000.0}),
              3000.0);
  });
}

TEST_F(BuilderTest, GainStrongerTowardBoresight) {
  const auto fp = builder_.build(make_sector(), 0);
  // 1 km north (boresight) vs 1 km south (back lobe).
  const geo::GridIndex ahead = grid_.index_of({2050.0, 3050.0});
  const geo::GridIndex behind = grid_.index_of({2050.0, 950.0});
  ASSERT_TRUE(fp.covers(ahead));
  if (fp.covers(behind)) {
    EXPECT_GT(fp.gain_db(ahead), fp.gain_db(behind) + 10.0f);
  }
}

TEST_F(BuilderTest, RejectsNulls) {
  EXPECT_THROW(FootprintBuilder(nullptr, &cache_), std::invalid_argument);
  EXPECT_THROW(FootprintBuilder(&propagation_, nullptr),
               std::invalid_argument);
  EXPECT_THROW(FootprintBuilder(&propagation_, &cache_, 0.0),
               std::invalid_argument);
}

TEST_F(BuilderTest, DatabaseRoundTrip) {
  const net::Sector sector = make_sector();
  PathLossDatabase db{grid_};
  db.insert(0, 0, builder_.build(sector, 0));
  db.insert(0, -2, builder_.build(sector, -2));
  EXPECT_EQ(db.entry_count(), 2u);
  EXPECT_TRUE(db.contains(0, 0));
  EXPECT_FALSE(db.contains(1, 0));

  const std::string path = ::testing::TempDir() + "/magus_pl_test.bin";
  db.save(path);
  PathLossDatabase loaded = PathLossDatabase::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.entry_count(), 2u);
  ASSERT_EQ(loaded.grid().cell_count(), grid_.cell_count());
  const auto& original = db.footprint(0, 0);
  const auto& restored = loaded.footprint(0, 0);
  EXPECT_EQ(original.covered_count(), restored.covered_count());
  original.for_each_covered([&](geo::GridIndex g, float gain) {
    ASSERT_TRUE(restored.covers(g));
    EXPECT_FLOAT_EQ(restored.gain_db(g), gain);
  });
  EXPECT_THROW((void)loaded.footprint(5, 0), std::out_of_range);
}

TEST_F(BuilderTest, DatabaseLoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/magus_pl_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a database";
  }
  EXPECT_THROW((void)PathLossDatabase::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW((void)PathLossDatabase::load("/nonexistent/nope.bin"),
               std::runtime_error);
}

TEST_F(BuilderTest, BuildingProviderCaches) {
  net::Network network;
  net::Sector sector = make_sector();
  sector.site = 0;
  network.add_sector(sector);
  BuildingProvider provider{&network, builder_};
  EXPECT_EQ(provider.built_count(), 0u);
  const auto& fp1 = provider.footprint(0, 0);
  EXPECT_EQ(provider.built_count(), 1u);
  const auto& fp2 = provider.footprint(0, 0);
  EXPECT_EQ(&fp1, &fp2);  // cached, stable reference
  (void)provider.footprint(0, -1);
  EXPECT_EQ(provider.built_count(), 2u);
}

TEST_F(BuilderTest, ApproxTiltMatchesExactDirection) {
  net::Network network;
  net::Sector sector = make_sector();
  sector.site = 0;
  network.add_sector(sector);
  BuildingProvider exact{&network, builder_};
  BuildingProvider inner{&network, builder_};
  ApproxTiltProvider approx{&inner, &network,
                            TiltDeltaModel{sector.antenna, sector.height_m}};

  const auto& exact_up = exact.footprint(0, -2);
  const auto& approx_up = approx.footprint(0, -2);
  // Compare at a far cell on boresight: both models must agree that uptilt
  // helps, within a couple of dB.
  const geo::GridIndex far = grid_.index_of({2050.0, 3950.0});
  ASSERT_TRUE(exact_up.covers(far));
  ASSERT_TRUE(approx_up.covers(far));
  const auto& base = exact.footprint(0, 0);
  EXPECT_GT(exact_up.gain_db(far), base.gain_db(far));
  EXPECT_GT(approx_up.gain_db(far), base.gain_db(far));
  EXPECT_NEAR(approx_up.gain_db(far), exact_up.gain_db(far), 2.5);
}

void expect_bitwise_equal(const SectorFootprint& a, const SectorFootprint& b) {
  ASSERT_EQ(a.grid_cols(), b.grid_cols());
  ASSERT_EQ(a.grid_rows(), b.grid_rows());
  ASSERT_EQ(a.col0(), b.col0());
  ASSERT_EQ(a.row0(), b.row0());
  ASSERT_EQ(a.window_cols(), b.window_cols());
  ASSERT_EQ(a.window_rows(), b.window_rows());
  const auto wa = a.window();
  const auto wb = b.window();
  ASSERT_EQ(wa.size(), wb.size());
  // memcmp instead of element compares: NaN (uncovered) must match too.
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
}

[[nodiscard]] std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

TEST_F(BuilderTest, BatchedMatchesReferenceOnFlatTerrain) {
  // Flat terrain has no diffraction, so the batched kernel and the legacy
  // per-cell reference share every input; only float rounding of the
  // staged isotropic plane and sqrt-vs-hypot distances separate them.
  const net::Sector sector = make_sector();
  for (const radio::TiltIndex tilt : {-2, 0, 3}) {
    const auto reference = builder_.build_reference(sector, tilt);
    const auto batched = builder_.build(sector, tilt);
    ASSERT_EQ(batched.covered_count(), reference.covered_count());
    reference.for_each_covered([&](geo::GridIndex g, float gain) {
      ASSERT_TRUE(batched.covers(g)) << "cell " << g;
      EXPECT_NEAR(batched.gain_db(g), gain, 0.01) << "cell " << g;
    });
  }
}

TEST_F(BuilderTest, BuildTiltsMatchesSingleBuilds) {
  const net::Sector sector = make_sector();
  const std::vector<radio::TiltIndex> tilts = {-2, 0, 1, 4};
  const auto batch = builder_.build_tilts(sector, tilts);
  ASSERT_EQ(batch.size(), tilts.size());
  for (std::size_t t = 0; t < tilts.size(); ++t) {
    const auto single = builder_.build(sector, tilts[t]);
    expect_bitwise_equal(batch[t], single);
  }
}

// The batched kernel's radial diffraction profiles quantize the ray
// bearing (one ray per boundary cell) and sample at a fixed radial step,
// so on rough terrain individual cells near an obstruction edge may
// disagree with the per-cell reference sampler. The disagreement must stay
// bounded: small on average, rare in the tail, and with near-identical
// coverage.
class HillyBuilderTest : public ::testing::Test {
 protected:
  HillyBuilderTest()
      : terrain_(11, hilly()),
        grid_(geo::Rect{{0, 0}, {6000, 6000}}, 100.0),
        cache_(terrain_, grid_),
        propagation_(&terrain_, radio::SpmParams{}),
        builder_(&propagation_, &cache_, 2500.0) {}

  static terrain::TerrainParams hilly() {
    terrain::TerrainParams params;  // default 120 m relief, 6 dB shadowing
    return params;
  }

  terrain::Terrain terrain_;
  geo::GridMap grid_;
  terrain::TerrainGridCache cache_;
  radio::PropagationModel propagation_;
  FootprintBuilder builder_;
};

TEST_F(HillyBuilderTest, BatchedCloseToReferenceOnRoughTerrain) {
  net::Sector sector;
  sector.id = 0;
  sector.position = {2600.0, 3100.0};
  sector.azimuth_deg = 120.0;
  sector.height_m = 30.0;
  const auto reference = builder_.build_reference(sector, 0);
  const auto batched = builder_.build(sector, 0);

  std::size_t both = 0;
  std::size_t disagree_coverage = 0;
  std::size_t over_3db = 0;
  double sum_abs = 0.0;
  for (geo::GridIndex g = 0; g < grid_.cell_count(); ++g) {
    const bool in_ref = reference.covers(g);
    const bool in_batched = batched.covers(g);
    if (in_ref != in_batched) {
      ++disagree_coverage;
      continue;
    }
    if (!in_ref) continue;
    ++both;
    const double diff = std::fabs(reference.gain_db(g) - batched.gain_db(g));
    sum_abs += diff;
    if (diff > 3.0) ++over_3db;
    // The knife-edge term is capped at 30 dB, bounding any single cell.
    EXPECT_LE(diff, 30.0 * propagation_.params().k4 + 0.01) << "cell " << g;
  }
  ASSERT_GT(both, 500u);
  EXPECT_LT(static_cast<double>(disagree_coverage) /
                static_cast<double>(both + disagree_coverage),
            0.10);
  EXPECT_LT(sum_abs / static_cast<double>(both), 1.0);
  EXPECT_LT(static_cast<double>(over_3db) / static_cast<double>(both), 0.08);
}

TEST_F(BuilderTest, ParallelBuilderBitwiseIdenticalAcrossThreadCounts) {
  net::Network network;
  std::vector<net::SectorId> sectors;
  for (std::int32_t i = 0; i < 4; ++i) {
    net::Sector sector = make_sector();
    sector.id = i;
    sector.site = i / 2;
    sector.position = {1200.0 + 600.0 * i, 900.0 + 500.0 * i};
    sector.azimuth_deg = 90.0 * i;
    network.add_sector(sector);
    sectors.push_back(i);
  }
  const std::vector<radio::TiltIndex> tilts = {-2, 0, 2};

  // Serial ground truth: one FootprintBuilder::build per (sector, tilt).
  PathLossDatabase serial{grid_};
  for (const net::SectorId s : sectors) {
    for (const radio::TiltIndex t : tilts) {
      serial.insert(s, t, builder_.build(network.sector(s), t));
    }
  }

  for (const std::size_t threads : {1u, 2u, 4u}) {
    ParallelFootprintBuilder parallel{builder_, threads};
    PathLossDatabase db = parallel.build_database(network, sectors, tilts);
    ASSERT_EQ(db.entry_count(), serial.entry_count()) << threads;
    for (const net::SectorId s : sectors) {
      for (const radio::TiltIndex t : tilts) {
        expect_bitwise_equal(db.footprint(s, t), serial.footprint(s, t));
      }
    }
    // Byte-identical on disk too (save order is key order, not build order).
    const std::string serial_path =
        ::testing::TempDir() + "/magus_pl_serial.bin";
    const std::string parallel_path =
        ::testing::TempDir() + "/magus_pl_par.bin";
    serial.save(serial_path, 1);
    db.save(parallel_path, threads);
    EXPECT_EQ(file_bytes(serial_path), file_bytes(parallel_path)) << threads;
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
  }
}

TEST(Database, InsertValidatesGrid) {
  const geo::GridMap grid{geo::Rect{{0, 0}, {500, 500}}, 100.0};
  PathLossDatabase db{grid};
  std::vector<float> wrong(9, -80.0f);
  EXPECT_THROW(db.insert(0, 0, SectorFootprint{std::move(wrong), 3, 3}),
               std::invalid_argument);
}


// Corruption fixtures for the v3 file save() writes: every failure mode
// must be rejected by load() with its specific error message, and
// load_or_rebuild must repair all of them from a fallback provider. (The
// coverage-index section's cases are in pathloss_index_section_test.cpp.)
class DatabaseCorruption : public ::testing::Test {
 protected:
  DatabaseCorruption()
      : grid_(geo::Rect{{0, 0}, {400, 300}}, 100.0), provider_(grid_) {
    // Two entries on a 4x3 grid, hand-authored so byte offsets are exact.
    const auto nan = std::numeric_limits<float>::quiet_NaN();
    for (const int tilt : {0, 1}) {
      std::vector<float> dense(12, nan);
      dense[1 * 4 + 1] = -80.0f - tilt;
      dense[1 * 4 + 2] = -90.0f - tilt;
      provider_.set_footprint(0, static_cast<radio::TiltIndex>(tilt), dense);
    }
    // One file per test: under `ctest -j` each TEST_F runs as its own
    // process, so a shared name would let two corruption tests clobber
    // each other's bytes mid-run.
    path_ = ::testing::TempDir() + "/magus_pl_corrupt_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    PathLossDatabase db{grid_};
    db.insert(0, 0, provider_.footprint(0, 0));
    db.insert(0, 1, provider_.footprint(0, 1));
    db.save(path_);
  }

  ~DatabaseCorruption() override { std::remove(path_.c_str()); }

  [[nodiscard]] std::string read_file() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
  }

  void write_file(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Offset of a byte inside the last gain plane (sector 0 tilt 1): the
  /// coverage-index section follows the planes, so the file's own last
  /// bytes are not gains.
  [[nodiscard]] std::size_t last_plane_byte() const {
    std::size_t file_bytes = 0;
    return static_cast<std::size_t>(
               format::read_v3(path_, file_bytes).planes_end) -
           3;
  }

  /// Loads and returns the error message, failing the test on success.
  [[nodiscard]] std::string load_error() const {
    try {
      (void)PathLossDatabase::load(path_);
    } catch (const std::runtime_error& error) {
      return error.what();
    }
    ADD_FAILURE() << "load unexpectedly succeeded";
    return {};
  }

  /// Overwrites one i32 field of directory entry `entry` (0 = sector ...
  /// 4 = window_cols) and re-seals the directory checksum, so the edit
  /// reaches the check behind the checksum.
  void patch_directory(std::size_t entry, std::size_t field,
                       std::int32_t value) const {
    std::string bytes = read_file();
    const std::size_t dir = format::kHeaderBytesV3;
    std::memcpy(bytes.data() + dir + entry * format::kDirEntryBytes +
                    field * sizeof(value),
                &value, sizeof(value));
    std::uint64_t entries = 0;
    std::memcpy(&entries, bytes.data() + kEntryCountOffset, sizeof(entries));
    const std::uint64_t checksum =
        util::fnv1a(bytes.data() + dir, entries * format::kDirEntryBytes);
    std::memcpy(bytes.data() + kDirChecksumOffset, &checksum,
                sizeof(checksum));
    write_file(bytes);
  }

  // v3 layout (pathloss/format.h): magic(8) version(4) ... entry_count at
  // 44, directory checksum at 52, payload end at 60; the 40-byte directory
  // records start at 68.
  static constexpr std::size_t kVersionOffset = 8;
  static constexpr std::size_t kEntryCountOffset = 44;
  static constexpr std::size_t kDirChecksumOffset = 52;

  geo::GridMap grid_;
  magus::testing::FakeProvider provider_;
  std::string path_;
};

TEST_F(DatabaseCorruption, TruncatedHeaderRejected) {
  write_file(read_file().substr(0, format::kHeaderBytesV3 / 2));
  EXPECT_NE(load_error().find("truncated header"), std::string::npos);
}

TEST_F(DatabaseCorruption, UnsupportedVersionRejected) {
  std::string bytes = read_file();
  bytes[kVersionOffset] = 1;  // little-endian version field -> v1
  write_file(bytes);
  EXPECT_NE(load_error().find("unsupported version 1"), std::string::npos);
}

TEST_F(DatabaseCorruption, TruncatedEntryRejected) {
  // Clipping the file's last bytes leaves it shorter than the payload end
  // the header promises: a torn payload, caught at open.
  const std::string bytes = read_file();
  write_file(bytes.substr(0, bytes.size() - 2));
  EXPECT_NE(load_error().find("torn payload"), std::string::npos);
}

TEST_F(DatabaseCorruption, BitFlipInGainsFailsChecksum) {
  std::string bytes = read_file();
  bytes[last_plane_byte()] =
      static_cast<char>(bytes[last_plane_byte()] ^ 0x10);
  write_file(bytes);
  const std::string error = load_error();
  EXPECT_NE(error.find("checksum mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("sector 0 tilt 1"), std::string::npos) << error;
}

TEST_F(DatabaseCorruption, OversizedWindowRejectedBeforeAllocation) {
  // Entry 0's window_cols becomes huge; the open must refuse before
  // anything is sized from it.
  patch_directory(0, 4, 1 << 28);
  EXPECT_NE(load_error().find("oversized window (entry 0 of 2)"),
            std::string::npos);
}

TEST_F(DatabaseCorruption, WindowOutsideGridRejected) {
  // Shift entry 0's col0 so col0 + window_cols overruns the 4-wide grid
  // while window_cols itself stays plausible.
  patch_directory(0, 2, 3);
  const std::string error = load_error();
  EXPECT_NE(error.find("entry 0 of 2 does not fit the grid"),
            std::string::npos)
      << error;
}

TEST_F(DatabaseCorruption, TrailingBytesRejected) {
  write_file(read_file() + "extra");
  EXPECT_NE(load_error().find("trailing bytes after 2 entries"),
            std::string::npos);
}

TEST_F(DatabaseCorruption, LoadOrRebuildRepairsCorruptFile) {
  std::string bytes = read_file();
  bytes[last_plane_byte()] =
      static_cast<char>(bytes[last_plane_byte()] ^ 0x10);
  write_file(bytes);

  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  PathLossDatabase::LoadReport report;
  PathLossDatabase db = PathLossDatabase::load_or_rebuild(
      path_, provider_, sectors, tilts, &report);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_TRUE(report.resaved);
  EXPECT_NE(report.error.find("checksum mismatch"), std::string::npos);
  ASSERT_EQ(db.entry_count(), 2u);
  EXPECT_FLOAT_EQ(db.footprint(0, 0).gain_db(5), -80.0f);
  // The repaired file on disk loads cleanly now.
  const PathLossDatabase reloaded = PathLossDatabase::load(path_);
  EXPECT_EQ(reloaded.entry_count(), 2u);
}

TEST_F(DatabaseCorruption, LoadOrRebuildParallelMatchesSerial) {
  // A corrupted entry forces the rebuild path; rebuilding across threads
  // must produce a database (and a re-saved file) identical to the serial
  // rebuild.
  const std::string corrupted = [&] {
    std::string bytes = read_file();
    bytes[last_plane_byte()] =
        static_cast<char>(bytes[last_plane_byte()] ^ 0x10);
    return bytes;
  }();
  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};

  write_file(corrupted);
  PathLossDatabase::LoadReport serial_report;
  PathLossDatabase serial = PathLossDatabase::load_or_rebuild(
      path_, provider_, sectors, tilts, &serial_report, 1);
  const std::string serial_file = read_file();

  write_file(corrupted);
  PathLossDatabase::LoadReport parallel_report;
  PathLossDatabase parallel = PathLossDatabase::load_or_rebuild(
      path_, provider_, sectors, tilts, &parallel_report, 3);

  EXPECT_TRUE(serial_report.rebuilt);
  EXPECT_TRUE(parallel_report.rebuilt);
  EXPECT_EQ(serial_report.error, parallel_report.error);
  ASSERT_EQ(parallel.entry_count(), serial.entry_count());
  for (const radio::TiltIndex tilt : tilts) {
    const auto& a = serial.footprint(0, tilt);
    const auto& b = parallel.footprint(0, tilt);
    ASSERT_EQ(a.window().size(), b.window().size());
    EXPECT_EQ(std::memcmp(a.window().data(), b.window().data(),
                          a.window().size() * sizeof(float)),
              0);
  }
  EXPECT_EQ(read_file(), serial_file);  // re-saved bytes identical too
}

TEST_F(DatabaseCorruption, LoadOrRebuildDetectsGridMismatch) {
  // A pristine file whose grid disagrees with the provider counts as
  // unusable: the model would silently mis-index every footprint.
  const geo::GridMap other{geo::Rect{{0, 0}, {600, 300}}, 100.0};
  PathLossDatabase wrong{other};
  const auto nan = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> dense(18, nan);
  dense[7] = -85.0f;
  wrong.insert(0, 0, SectorFootprint{std::move(dense), 6, 3});
  wrong.save(path_);

  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  PathLossDatabase::LoadReport report;
  PathLossDatabase db = PathLossDatabase::load_or_rebuild(
      path_, provider_, sectors, tilts, &report);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_NE(report.error.find("grid mismatch"), std::string::npos)
      << report.error;
  EXPECT_EQ(db.grid().cols(), grid_.cols());
  EXPECT_EQ(db.entry_count(), 2u);
}

TEST_F(DatabaseCorruption, PristineFileLoadsWithoutRebuild) {
  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  PathLossDatabase::LoadReport report;
  const PathLossDatabase db = PathLossDatabase::load_or_rebuild(
      path_, provider_, sectors, tilts, &report);
  EXPECT_FALSE(report.rebuilt);
  EXPECT_FALSE(report.resaved);
  EXPECT_TRUE(report.error.empty());
  EXPECT_EQ(db.entry_count(), 2u);
}

TEST_F(DatabaseCorruption, MissingFileRebuildsFromProvider) {
  std::remove(path_.c_str());
  const std::vector<net::SectorId> sectors = {0};
  const std::vector<radio::TiltIndex> tilts = {0, 1};
  PathLossDatabase::LoadReport report;
  const PathLossDatabase db = PathLossDatabase::load_or_rebuild(
      path_, provider_, sectors, tilts, &report);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_NE(report.error.find("cannot open"), std::string::npos);
  EXPECT_EQ(db.entry_count(), 2u);
}

// Property sweep: random sparse footprints of several shapes must survive a
// database round trip bit-exactly, and the windowed representation must
// agree with the dense input everywhere.
class FootprintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FootprintRoundTrip, WindowAgreesWithDenseAndSurvivesDisk) {
  magus::util::Xoshiro256ss rng{GetParam()};
  const auto cols = static_cast<std::int32_t>(rng.uniform_int(3, 40));
  const auto rows = static_cast<std::int32_t>(rng.uniform_int(3, 40));
  const auto cells = static_cast<std::size_t>(cols) * rows;
  std::vector<float> dense(cells, std::numeric_limits<float>::quiet_NaN());
  for (std::size_t i = 0; i < cells; ++i) {
    if (rng.uniform() < 0.35) {
      dense[i] = static_cast<float>(rng.uniform(-169.0, -50.0));
    }
  }
  const std::vector<float> reference = dense;
  const SectorFootprint fp{std::move(dense), cols, rows};

  // Window vs dense agreement.
  std::size_t covered = 0;
  for (std::size_t i = 0; i < cells; ++i) {
    const auto g = static_cast<geo::GridIndex>(i);
    if (std::isnan(reference[i])) {
      EXPECT_FALSE(fp.covers(g));
    } else {
      ASSERT_TRUE(fp.covers(g)) << "cell " << i;
      EXPECT_FLOAT_EQ(fp.gain_db(g), reference[i]);
      ++covered;
    }
  }
  EXPECT_EQ(fp.covered_count(), covered);

  // Disk round trip.
  const geo::GridMap grid{
      geo::Rect{{0, 0}, {cols * 100.0, rows * 100.0}}, 100.0};
  PathLossDatabase db{grid};
  db.insert(0, 0, fp);
  const std::string path = ::testing::TempDir() + "/magus_fp_rt_" +
                           std::to_string(GetParam()) + ".bin";
  db.save(path);
  PathLossDatabase loaded = PathLossDatabase::load(path);
  std::remove(path.c_str());
  const auto& restored = loaded.footprint(0, 0);
  EXPECT_EQ(restored.covered_count(), covered);
  for (std::size_t i = 0; i < cells; ++i) {
    const auto g = static_cast<geo::GridIndex>(i);
    if (!std::isnan(reference[i])) {
      ASSERT_TRUE(restored.covers(g));
      EXPECT_FLOAT_EQ(restored.gain_db(g), reference[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintRoundTrip,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace magus::pathloss
