// Bitwise identity of the SIMD kernels against their scalar oracles.
//
// The util::simd layer promises that every vector kernel produces outputs
// bit-identical to the scalar reference at any lane width (DESIGN.md §15).
// This suite checks that promise three ways: unit tests on the wrapper ops
// themselves (including the MINPD "b wins" rule and NaN compare semantics
// the identity proofs lean on), randomized row-sweep comparisons against
// the *_reference twins across every tail residue, and end-to-end
// comparisons of the propagation / antenna / footprint / CQI kernels
// against their per-cell loops. Everything here passes unchanged whether
// MAGUS_SIMD resolves to AVX2, SSE2, NEON, or OFF — that matrix is what
// scripts/verify.sh runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "model/kernels.h"
#include "model/simd_sweeps.h"
#include "obs/metrics.h"
#include "pathloss/footprint.h"
#include "radio/antenna.h"
#include "radio/propagation.h"
#include "terrain/terrain.h"
#include "util/simd.h"
#include "util/units.h"

namespace magus {
namespace {

namespace vx = util::simd;

constexpr float kNaNf = std::numeric_limits<float>::quiet_NaN();
constexpr int K = vx::kWidth;

// ---------------------------------------------------------- wrapper ops --

TEST(SimdOps, BackendReportsSaneGeometry) {
  EXPECT_GE(K, 1);
  EXPECT_LE(K, 8);
  EXPECT_FALSE(std::string{vx::kBackendName}.empty());
#if MAGUS_SIMD_LEVEL == 0
  EXPECT_EQ(K, 1);
  EXPECT_STREQ(vx::kBackendName, "scalar");
#endif
}

TEST(SimdOps, LaneArithmeticMatchesScalar) {
  std::mt19937_64 rng{7};
  std::uniform_real_distribution<double> dist{-1e3, 1e3};
  for (int trial = 0; trial < 200; ++trial) {
    double a[8], b[8];
    for (int j = 0; j < K; ++j) {
      a[j] = dist(rng);
      b[j] = dist(rng);
      if (b[j] == 0.0) b[j] = 1.0;
    }
    const vx::vdouble va = vx::loadu_d(a);
    const vx::vdouble vb = vx::loadu_d(b);
    for (int j = 0; j < K; ++j) {
      EXPECT_EQ(vx::extract_d(vx::add_d(va, vb), j), a[j] + b[j]);
      EXPECT_EQ(vx::extract_d(vx::sub_d(va, vb), j), a[j] - b[j]);
      EXPECT_EQ(vx::extract_d(vx::mul_d(va, vb), j), a[j] * b[j]);
      EXPECT_EQ(vx::extract_d(vx::div_d(va, vb), j), a[j] / b[j]);
      EXPECT_EQ(vx::extract_d(vx::sqrt_d(vx::mul_d(va, va)), j),
                std::sqrt(a[j] * a[j]));
      EXPECT_EQ(vx::extract_d(vx::neg_d(va), j), -a[j]);
      // min/max agree with std::min/std::max on distinct finite values.
      if (a[j] != b[j]) {
        EXPECT_EQ(vx::extract_d(vx::min_d(va, vb), j), std::min(a[j], b[j]));
        EXPECT_EQ(vx::extract_d(vx::max_d(va, vb), j), std::max(a[j], b[j]));
      }
      EXPECT_EQ(vx::extract_f(vx::to_float(va), j),
                static_cast<float>(a[j]));
    }
  }
}

TEST(SimdOps, MinMaxSecondOperandWinsOnNaN) {
  // The MINPD/MAXPD rule every backend must reproduce: if either operand
  // is NaN, the second operand is returned. max_d(x, 0) == std::max(0, x)
  // rests on this.
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const vx::vdouble vn = vx::set1_d(qnan);
  const vx::vdouble v1 = vx::set1_d(1.0);
  for (int j = 0; j < K; ++j) {
    EXPECT_EQ(vx::extract_d(vx::max_d(vn, v1), j), 1.0);
    EXPECT_EQ(vx::extract_d(vx::min_d(vn, v1), j), 1.0);
    EXPECT_TRUE(std::isnan(vx::extract_d(vx::max_d(v1, vn), j)));
    EXPECT_TRUE(std::isnan(vx::extract_d(vx::min_d(v1, vn), j)));
  }
  // Signed-zero: max_d(-0.0, +0.0) picks b (+0.0 bit pattern), matching
  // std::max(0.0, -0.0) == 0.0 with the +0.0 pattern from operand order.
  const double r = vx::extract_d(
      vx::max_d(vx::set1_d(-0.0), vx::set1_d(0.0)), 0);
  EXPECT_EQ(std::signbit(r), false);
}

TEST(SimdOps, OrderedComparesAreFalseOnNaN) {
  const vx::vfloat vn = vx::set1_f(kNaNf);
  const vx::vfloat v1 = vx::set1_f(1.0f);
  EXPECT_FALSE(vx::any(vx::cmp_gt_f(vn, v1)));
  EXPECT_FALSE(vx::any(vx::cmp_lt_f(vn, v1)));
  EXPECT_FALSE(vx::any(vx::cmp_le_f(vn, v1)));
  EXPECT_FALSE(vx::any(vx::cmp_ge_f(vn, v1)));
  EXPECT_FALSE(vx::any(vx::cmp_eq_f(vn, vn)));
  EXPECT_TRUE(vx::any(vx::isnan_f(vn)));
  EXPECT_FALSE(vx::any(vx::isnan_f(v1)));
}

TEST(SimdOps, PartialLoadStoreEveryCount) {
  for (int n = 0; n <= K; ++n) {
    double in[8], out[8];
    float fin[8], fout[8];
    std::int32_t iin[8], iout[8];
    for (int j = 0; j < K; ++j) {
      in[j] = 10.0 + j;
      fin[j] = 20.0f + static_cast<float>(j);
      iin[j] = 30 + j;
      out[j] = -1.0;
      fout[j] = -1.0f;
      iout[j] = -1;
    }
    const vx::vdouble vd = vx::loadu_d_partial(in, n, -7.0);
    const vx::vfloat vf = vx::loadu_f_partial(fin, n, -7.0f);
    const vx::vint vi = vx::loadu_i_partial(iin, n, -7);
    for (int j = 0; j < K; ++j) {
      EXPECT_EQ(vx::extract_d(vd, j), j < n ? in[j] : -7.0) << n;
      EXPECT_EQ(vx::extract_f(vf, j), j < n ? fin[j] : -7.0f) << n;
      EXPECT_EQ(vx::extract_i(vi, j), j < n ? iin[j] : -7) << n;
    }
    vx::storeu_d_partial(out, vd, n);
    vx::storeu_f_partial(fout, vf, n);
    vx::storeu_i_partial(iout, vi, n);
    for (int j = 0; j < K; ++j) {
      EXPECT_EQ(out[j], j < n ? in[j] : -1.0) << n;
      EXPECT_EQ(fout[j], j < n ? fin[j] : -1.0f) << n;
      EXPECT_EQ(iout[j], j < n ? iin[j] : -1) << n;
    }
  }
}

TEST(SimdOps, MaskedGathersMatchScalar) {
  std::vector<double> based(64);
  std::vector<float> basef(64);
  std::vector<std::int32_t> basei(64);
  for (int i = 0; i < 64; ++i) {
    based[i] = i * 1.5;
    basef[i] = i * 0.5f;
    basei[i] = i * 3;
  }
  std::mt19937_64 rng{11};
  std::uniform_int_distribution<std::int32_t> idx_dist{0, 63};
  for (int trial = 0; trial < 100; ++trial) {
    std::int32_t idx[8];
    float sel[8];
    for (int j = 0; j < K; ++j) {
      idx[j] = idx_dist(rng);
      sel[j] = (rng() & 1) != 0 ? 1.0f : -1.0f;
    }
    const vx::vint vidx = vx::loadu_i(idx);
    const vx::fmask m = vx::cmp_gt_f(vx::loadu_f(sel), vx::set1_f(0.0f));
    const vx::vdouble gd = vx::gather_d(based.data(), vidx, vx::widen(m), -1.0);
    const vx::vfloat gf = vx::gather_f(basef.data(), vidx, m, -1.0f);
    const vx::vint gi = vx::gather_i(basei.data(), vidx, m, -1);
    for (int j = 0; j < K; ++j) {
      const bool on = sel[j] > 0.0f;
      EXPECT_EQ(vx::extract_d(gd, j), on ? based[idx[j]] : -1.0);
      EXPECT_EQ(vx::extract_f(gf, j), on ? basef[idx[j]] : -1.0f);
      EXPECT_EQ(vx::extract_i(gi, j), on ? basei[idx[j]] : -1);
    }
  }
}

TEST(SimdOps, MaskPlumbingRoundTrips) {
  float a[8];
  for (int j = 0; j < K; ++j) a[j] = (j % 2 == 0) ? 1.0f : -1.0f;
  const vx::fmask m = vx::cmp_gt_f(vx::loadu_f(a), vx::set1_f(0.0f));
  // narrow(widen(m)) == m, bit for bit.
  EXPECT_EQ(vx::to_bits(vx::narrow(vx::widen(m))), vx::to_bits(m));
  // to_bits sets exactly the true lanes.
  unsigned expect = 0;
  for (int j = 0; j < K; ++j) {
    if (a[j] > 0.0f) expect |= 1u << j;
  }
  EXPECT_EQ(vx::to_bits(m), expect);
  EXPECT_EQ(vx::any(m), expect != 0);
  // mask_i: all-ones lanes where true.
  for (int j = 0; j < K; ++j) {
    EXPECT_EQ(vx::extract_i(vx::mask_i(m), j), a[j] > 0.0f ? -1 : 0);
  }
  // blend picks a where true, b where false.
  const vx::vfloat blended =
      vx::blend_f(m, vx::set1_f(5.0f), vx::set1_f(9.0f));
  for (int j = 0; j < K; ++j) {
    EXPECT_EQ(vx::extract_f(blended, j), a[j] > 0.0f ? 5.0f : 9.0f);
  }
}

TEST(SimdOps, IotaCountsLanes) {
  for (int j = 0; j < K; ++j) {
    EXPECT_EQ(vx::extract_d(vx::iota_d(), j), static_cast<double>(j));
  }
}

TEST(SimdOps, SplitExpMatchesBitReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> inputs = {
      1.0, 2.0, 0.5, 1.5, std::sqrt(2.0), 3.999999999999999, 1e-11, 4e-11,
      123456.789, -1.0, -3.5, 0.0, -0.0, kInf, -kInf, kNaN, -kNaN,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::nextafter(std::numeric_limits<double>::min(), 0.0), 1e-310,
      std::nextafter(1.0, 0.0), std::nextafter(2.0, 0.0)};
  std::mt19937_64 rng{11};
  std::uniform_real_distribution<double> mant{1.0, 2.0};
  std::uniform_int_distribution<int> expo{-1070, 1023};
  for (int n = 0; n < 200; ++n) {
    inputs.push_back(std::ldexp(mant(rng), expo(rng)) * (n % 3 ? 1.0 : -1.0));
  }
  while (inputs.size() % static_cast<std::size_t>(K) != 0) {
    inputs.push_back(1.0);
  }

  for (std::size_t i = 0; i < inputs.size(); i += K) {
    const vx::ExpSplit split = vx::split_exp_d(vx::loadu_d(&inputs[i]));
    const unsigned pos_normal = vx::to_bits(split.pos_normal);
    for (int j = 0; j < K; ++j) {
      const double x = inputs[i + static_cast<std::size_t>(j)];
      std::uint64_t bits;
      std::memcpy(&bits, &x, sizeof bits);
      const std::uint64_t mant_bits =
          (bits & 0x000FFFFFFFFFFFFFull) | 0x3FF0000000000000ull;
      const double expect_expo =
          static_cast<double>(static_cast<int>((bits >> 52) & 0x7FF) - 1023);
      const double got_mant = vx::extract_d(split.mant, j);
      std::uint64_t got_mant_bits;
      std::memcpy(&got_mant_bits, &got_mant, sizeof got_mant_bits);
      EXPECT_EQ(got_mant_bits, mant_bits) << "x=" << x;
      EXPECT_EQ(vx::extract_d(split.expo, j), expect_expo) << "x=" << x;
      const bool expect_normal = x > 0.0 && std::isnormal(x);
      EXPECT_EQ(((pos_normal >> j) & 1u) != 0, expect_normal) << "x=" << x;
      if (expect_normal) {
        EXPECT_EQ(std::ldexp(got_mant, static_cast<int>(expect_expo)), x);
      }
    }
  }
}

TEST(SimdOps, Pow2MatchesLdexpOverItsWholeDomain) {
  std::vector<double> ks;
  for (int k = -1022; k <= 1023; ++k) ks.push_back(k);
  while (ks.size() % static_cast<std::size_t>(K) != 0) ks.push_back(0.0);
  for (std::size_t i = 0; i < ks.size(); i += K) {
    const vx::vdouble p = vx::pow2_d(vx::loadu_d(&ks[i]));
    for (int j = 0; j < K; ++j) {
      const double k = ks[i + static_cast<std::size_t>(j)];
      const double want = std::ldexp(1.0, static_cast<int>(k));
      const double got = vx::extract_d(p, j);
      std::uint64_t want_bits, got_bits;
      std::memcpy(&want_bits, &want, sizeof want_bits);
      std::memcpy(&got_bits, &got, sizeof got_bits);
      EXPECT_EQ(got_bits, want_bits) << "k=" << k;
    }
  }
}

// ----------------------------------------------------------- row sweeps --

/// Heap-backed GridState slice of `n` cells plus the raw view the sweeps
/// take. Two of these (one per sweep variant) stay bitwise comparable.
struct SweepState {
  std::vector<double> total_mw;
  std::vector<net::SectorId> best;
  std::vector<float> best_rp;
  std::vector<double> best_mw;
  std::vector<net::SectorId> second;
  std::vector<float> second_rp;

  explicit SweepState(std::size_t n)
      : total_mw(n, 0.0),
        best(n, net::kInvalidSector),
        best_rp(n, model::kNoSignalDbm),
        best_mw(n, 0.0),
        second(n, net::kInvalidSector),
        second_rp(n, model::kNoSignalDbm) {}

  model::sweeps::StateView view() {
    return {total_mw.data(), best.data(),   best_rp.data(),
            best_mw.data(),  second.data(), second_rp.data()};
  }

  void expect_bitwise_equal(const SweepState& other,
                            const std::string& label) const {
    for (std::size_t i = 0; i < total_mw.size(); ++i) {
      const std::string at = label + " cell " + std::to_string(i);
      EXPECT_EQ(total_mw[i], other.total_mw[i]) << at;
      EXPECT_EQ(best[i], other.best[i]) << at;
      EXPECT_EQ(best_mw[i], other.best_mw[i]) << at;
      EXPECT_EQ(second[i], other.second[i]) << at;
      // EXPECT_EQ on -inf/-inf holds; NaNs never appear in rp fields.
      EXPECT_EQ(best_rp[i], other.best_rp[i]) << at;
      EXPECT_EQ(second_rp[i], other.second_rp[i]) << at;
    }
  }
};

/// Random gain row: NaN (uncovered) with probability `nan_p`, otherwise a
/// gain in [-140, -60] dB; linear = 10^(g/10) like a real footprint, 0
/// when uncovered.
void random_row(std::mt19937_64& rng, double nan_p, std::int32_t n,
                std::vector<float>& gains, std::vector<float>& linear) {
  std::uniform_real_distribution<double> u{0.0, 1.0};
  std::uniform_real_distribution<double> g{-140.0, -60.0};
  gains.assign(static_cast<std::size_t>(n), kNaNf);
  linear.assign(static_cast<std::size_t>(n), 0.0f);
  for (std::int32_t c = 0; c < n; ++c) {
    if (u(rng) < nan_p) continue;
    const double gain = g(rng);
    gains[static_cast<std::size_t>(c)] = static_cast<float>(gain);
    linear[static_cast<std::size_t>(c)] =
        static_cast<float>(std::pow(10.0, gain / 10.0));
  }
}

TEST(SweepIdentity, AddRowMatchesReferenceAcrossResiduesAndNaNPatterns) {
  std::mt19937_64 rng{101};
  std::vector<float> gains, linear;
  // Every tail residue around the lane width, plus longer rows; NaN
  // density from fully covered to fully uncovered (the all-NaN block-skip
  // path).
  for (const double nan_p : {0.0, 0.3, 0.9, 1.0}) {
    for (std::int32_t n = 0; n <= 3 * K + 3; ++n) {
      SweepState vec(static_cast<std::size_t>(n) + 4);
      SweepState ref(static_cast<std::size_t>(n) + 4);
      // Several sectors layered onto the same row exercises the demote
      // chain (best -> second) and the equal-rp tie-break.
      for (net::SectorId s = 0; s < 5; ++s) {
        random_row(rng, nan_p, n, gains, linear);
        const double power = 30.0 + 3.0 * s;
        const double p_lin = util::dbm_to_mw(power);
        model::sweeps::add_row(vec.view(), 2, gains.data(), linear.data(), n,
                               s, power, p_lin);
        model::sweeps::add_row_reference(ref.view(), 2, gains.data(),
                                         linear.data(), n, s, power, p_lin);
      }
      vec.expect_bitwise_equal(
          ref, "add n=" + std::to_string(n) + " p=" + std::to_string(nan_p));
    }
  }
}

TEST(SweepIdentity, AddRowEqualGainTieBreaksOnSectorId) {
  // Two sectors, bit-equal rp in every covered cell: the lower id must win
  // best, the higher settle for second — in both sweep variants.
  const std::int32_t n = 2 * K + 1;
  std::vector<float> gains(static_cast<std::size_t>(n), -80.0f);
  std::vector<float> linear(static_cast<std::size_t>(n), 1e-8f);
  SweepState vec(static_cast<std::size_t>(n));
  SweepState ref(static_cast<std::size_t>(n));
  const double p_lin = util::dbm_to_mw(40.0);
  for (const net::SectorId s : {7, 3}) {  // higher id first
    model::sweeps::add_row(vec.view(), 0, gains.data(), linear.data(), n, s,
                           40.0, p_lin);
    model::sweeps::add_row_reference(ref.view(), 0, gains.data(),
                                     linear.data(), n, s, 40.0, p_lin);
  }
  vec.expect_bitwise_equal(ref, "tie");
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    EXPECT_EQ(vec.best[i], 3);
    EXPECT_EQ(vec.second[i], 7);
  }
}

TEST(SweepIdentity, RemoveRowMatchesReferenceIncludingRecomputeOrder) {
  std::mt19937_64 rng{202};
  std::vector<float> gains, linear;
  for (const double nan_p : {0.0, 0.4, 1.0}) {
    for (std::int32_t n = 0; n <= 3 * K + 3; ++n) {
      SweepState vec(static_cast<std::size_t>(n) + 4);
      SweepState ref(static_cast<std::size_t>(n) + 4);
      // Build up a state with three sectors, then remove one of them.
      std::vector<std::vector<float>> sector_gains(3), sector_linear(3);
      for (net::SectorId s = 0; s < 3; ++s) {
        random_row(rng, nan_p, n, sector_gains[s], sector_linear[s]);
        const double power = 36.0 + s;
        model::sweeps::add_row_reference(
            vec.view(), 2, sector_gains[s].data(), sector_linear[s].data(), n,
            s, power, util::dbm_to_mw(power));
        model::sweeps::add_row_reference(
            ref.view(), 2, sector_gains[s].data(), sector_linear[s].data(), n,
            s, power, util::dbm_to_mw(power));
      }
      const net::SectorId victim = 1;
      const double p_lin = util::dbm_to_mw(37.0);
      std::vector<geo::GridIndex> vec_rec, ref_rec;
      model::sweeps::remove_row(vec.view(), 2, sector_gains[victim].data(),
                                sector_linear[victim].data(), n, victim,
                                p_lin, /*row_first=*/100, vec_rec);
      model::sweeps::remove_row_reference(
          ref.view(), 2, sector_gains[victim].data(),
          sector_linear[victim].data(), n, victim, p_lin, 100, ref_rec);
      vec.expect_bitwise_equal(
          ref,
          "remove n=" + std::to_string(n) + " p=" + std::to_string(nan_p));
      // Same demoted cells in the same (ascending) order: the deferred
      // recompute pass must visit them exactly as the scalar loop would.
      EXPECT_EQ(vec_rec, ref_rec) << "n=" << n << " p=" << nan_p;
    }
  }
}

/// Random row for the mutation sweeps: like random_row, but gains are
/// whole dB with probability `whole_p`, so sectors at whole-dB powers
/// often tie at bit-equal rp.
void random_tie_row(std::mt19937_64& rng, double nan_p, double whole_p,
                    std::int32_t n, std::vector<float>& gains,
                    std::vector<float>& linear) {
  random_row(rng, nan_p, n, gains, linear);
  std::uniform_real_distribution<double> u{0.0, 1.0};
  for (std::size_t c = 0; c < gains.size(); ++c) {
    if (std::isnan(gains[c]) || u(rng) >= whole_p) continue;
    gains[c] = 8.0f * std::round(gains[c] / 8.0f);  // multiples of 8 dB
    linear[c] = static_cast<float>(
        std::pow(10.0, static_cast<double>(gains[c]) / 10.0));
  }
}

/// Lays four sectors onto a row (sector s at 36 + 2s dBm, whole dB) in
/// both states, returning their gain/linear rows.
void layer_sectors(std::mt19937_64& rng, double nan_p, std::int32_t n,
                   SweepState& a, SweepState& b,
                   std::vector<std::vector<float>>& gains,
                   std::vector<std::vector<float>>& linear) {
  gains.assign(4, {});
  linear.assign(4, {});
  for (net::SectorId s = 0; s < 4; ++s) {
    const auto k = static_cast<std::size_t>(s);
    random_tie_row(rng, nan_p, 0.5, n, gains[k], linear[k]);
    const double power = 36.0 + 2.0 * s;
    for (SweepState* state : {&a, &b}) {
      model::sweeps::add_row_reference(state->view(), 2, gains[k].data(),
                                       linear[k].data(), n, s, power,
                                       util::dbm_to_mw(power));
    }
  }
}

TEST(SweepIdentity, PowerRowMatchesReferenceForEveryRuleAndResidue) {
  std::mt19937_64 rng{404};
  std::vector<std::vector<float>> gains, linear;
  std::size_t queued = 0;
  for (const double nan_p : {0.0, 0.3, 1.0}) {
    for (std::int32_t n = 0; n <= 3 * K + 3; ++n) {
      for (net::SectorId target = 0; target < 4; ++target) {
        // Down by 8 dB (ties with the sector 8 dB weaker in power), down
        // a little, up a little, up by 8 dB.
        for (const double delta : {-8.0, -1.5, 2.5, 8.0}) {
          SweepState vec(static_cast<std::size_t>(n) + 4);
          SweepState ref(static_cast<std::size_t>(n) + 4);
          layer_sectors(rng, nan_p, n, vec, ref, gains, linear);
          const auto k = static_cast<std::size_t>(target);
          const double old_power = 36.0 + 2.0 * target;
          const double power = old_power + delta;
          std::vector<geo::GridIndex> vec_rec, ref_rec;
          model::sweeps::power_row(
              vec.view(), 2, gains[k].data(), linear[k].data(), n, target,
              power, util::dbm_to_mw(old_power), util::dbm_to_mw(power),
              delta < 0.0, /*row_first=*/100, vec_rec);
          model::sweeps::power_row_reference(
              ref.view(), 2, gains[k].data(), linear[k].data(), n, target,
              power, util::dbm_to_mw(old_power), util::dbm_to_mw(power),
              delta < 0.0, 100, ref_rec);
          const std::string label =
              "power n=" + std::to_string(n) + " p=" + std::to_string(nan_p) +
              " sector " + std::to_string(target) +
              " delta=" + std::to_string(delta);
          vec.expect_bitwise_equal(ref, label);
          EXPECT_EQ(vec_rec, ref_rec) << label;
          queued += ref_rec.size();
        }
      }
    }
  }
  EXPECT_GT(queued, 0u);  // the decreasing rules were reached
}

TEST(SweepIdentity, SwapRowMatchesReferenceForEveryRuleAndResidue) {
  std::mt19937_64 rng{505};
  std::vector<std::vector<float>> gains, linear;
  std::vector<float> new_gains, new_linear;
  std::size_t queued = 0;
  for (const double nan_p : {0.0, 0.3, 1.0}) {
    for (std::int32_t n = 0; n <= 3 * K + 3; ++n) {
      for (net::SectorId target = 0; target < 4; ++target) {
        for (const double new_nan_p : {0.0, 0.5, 1.0}) {
          SweepState vec(static_cast<std::size_t>(n) + 4);
          SweepState ref(static_cast<std::size_t>(n) + 4);
          layer_sectors(rng, nan_p, n, vec, ref, gains, linear);
          const auto k = static_cast<std::size_t>(target);
          // The new tilt's gains: a fresh draw, so per cell the sector
          // gets stronger, weaker, ties, appears or disappears.
          random_tie_row(rng, new_nan_p, 0.5, n, new_gains, new_linear);
          const double power = 36.0 + 2.0 * target;
          std::vector<geo::GridIndex> vec_rec, ref_rec;
          model::sweeps::swap_row(vec.view(), 2, gains[k].data(),
                                  linear[k].data(), new_gains.data(),
                                  new_linear.data(), n, target, power,
                                  util::dbm_to_mw(power), 100, vec_rec);
          model::sweeps::swap_row_reference(
              ref.view(), 2, gains[k].data(), linear[k].data(),
              new_gains.data(), new_linear.data(), n, target, power,
              util::dbm_to_mw(power), 100, ref_rec);
          const std::string label =
              "swap n=" + std::to_string(n) + " p=" + std::to_string(nan_p) +
              " new p=" + std::to_string(new_nan_p) + " sector " +
              std::to_string(target);
          vec.expect_bitwise_equal(ref, label);
          EXPECT_EQ(vec_rec, ref_rec) << label;
          queued += ref_rec.size();
        }
      }
    }
  }
  EXPECT_GT(queued, 0u);
}

// ------------------------------------------------------------- kernels --

TEST(KernelIdentity, CqiAndLoadsMatchPerCellReference) {
  std::mt19937_64 rng{303};
  std::uniform_real_distribution<double> u{0.0, 1.0};
  std::uniform_real_distribution<double> gain{-120.0, -70.0};
  const double noise_mw = util::dbm_to_mw(-104.0);
  const double min_sinr = -6.0;
  const std::size_t sectors = 6;
  for (std::size_t cells :
       {std::size_t{1}, static_cast<std::size_t>(K),
        static_cast<std::size_t>(2 * K + 1), std::size_t{257}}) {
    model::GridState state(cells);
    std::vector<double> density(cells, 0.0);
    for (std::size_t i = 0; i < cells; ++i) {
      if (u(rng) < 0.25) continue;  // leave some cells serverless
      const double g1 = gain(rng);
      const double g2 = g1 - 15.0 * u(rng);
      const double p_lin = util::dbm_to_mw(40.0);
      const double mw1 = p_lin * std::pow(10.0, g1 / 10.0);
      const double mw2 = p_lin * std::pow(10.0, g2 / 10.0);
      state.best[i] = static_cast<net::SectorId>(rng() % sectors);
      state.best_rp_dbm[i] = static_cast<float>(40.0 + g1);
      state.best_mw[i] = mw1;
      state.second[i] = static_cast<net::SectorId>(rng() % sectors);
      state.second_rp_dbm[i] = static_cast<float>(40.0 + g2);
      state.total_mw[i] = mw1 + mw2;
      density[i] = u(rng) < 0.5 ? 0.0 : 10.0 * u(rng);
    }

    model::CqiMemo memo;
    std::vector<double> loads(sectors);
    model::cqi_and_loads_kernel(state, density, noise_mw, min_sinr, memo,
                                loads);
    const std::vector<std::int8_t>& cqi = memo.cqi;

    std::vector<double> expect_loads(sectors, 0.0);
    for (std::size_t i = 0; i < cells; ++i) {
      const lte::Cqi expect =
          model::cell_cqi(state.best[i], state.best_rp_dbm[i],
                          state.best_mw[i], state.total_mw[i], noise_mw,
                          min_sinr);
      EXPECT_EQ(cqi[i], static_cast<std::int8_t>(expect))
          << "cells=" << cells << " i=" << i;
      if (expect > 0 && density[i] > 0.0) {
        expect_loads[static_cast<std::size_t>(state.best[i])] += density[i];
      }
    }
    for (std::size_t s = 0; s < sectors; ++s) {
      EXPECT_EQ(loads[s], expect_loads[s]) << "cells=" << cells;
    }

    // loads_kernel (the skip-chunk variant) must agree with the fused one.
    std::vector<double> loads_only(sectors);
    model::loads_kernel(state, density, noise_mw, min_sinr, loads_only);
    for (std::size_t s = 0; s < sectors; ++s) {
      EXPECT_EQ(loads_only[s], loads[s]) << "cells=" << cells;
    }
  }
}

/// Cells whose exact SINR (the libm path of cell_cqi, noise 0, so the
/// denominator is total_mw itself) lands as close to `target` as doubles
/// allow: on it where reachable, and on the nearest reachable values below
/// and above it. Walks the denominator ulp by ulp around
/// 10^((rp - target) / 10), then adds cells at ±G/2 and ±2G.
void add_straddlers(double target, float rp, std::vector<double>& totals,
                    std::vector<float>& rps, int& exact_hits) {
  const auto sinr_of = [rp](double d) {
    return static_cast<double>(rp) - util::mw_to_dbm(d);
  };
  double d = std::pow(10.0, (static_cast<double>(rp) - target) / 10.0);
  double below = 0.0, above = 0.0;
  bool have_below = false, have_above = false;
  for (int k = 0; k < 64; ++k) d = std::nextafter(d, 0.0);
  for (int k = 0; k < 128; ++k, d = std::nextafter(d, 2.0 * d)) {
    const double sinr = sinr_of(d);
    if (sinr == target) {
      totals.push_back(d);
      rps.push_back(rp);
      ++exact_hits;
    } else if (sinr < target && (!have_below || sinr > sinr_of(below))) {
      below = d;
      have_below = true;
    } else if (sinr > target && (!have_above || sinr < sinr_of(above))) {
      above = d;
      have_above = true;
    }
  }
  ASSERT_TRUE(have_below && have_above) << "target=" << target;
  totals.push_back(below);
  rps.push_back(rp);
  totals.push_back(above);
  rps.push_back(rp);
  // Just inside and just outside the 1e-6 dB guard band.
  for (const double offset : {-2e-6, -5e-7, 5e-7, 2e-6}) {
    totals.push_back(
        std::pow(10.0, (static_cast<double>(rp) - (target + offset)) / 10.0));
    rps.push_back(rp);
  }
}

TEST(KernelIdentity, CqiOnAndAroundEveryThresholdMatchesLibm) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto& thresholds = lte::cqi_sinr_thresholds_db();
  const std::size_t sectors = 3;
  // The service floor on a threshold (the default) and between two.
  for (const double min_sinr : {thresholds.front(), -6.0}) {
    std::vector<double> totals;
    std::vector<float> rps;
    std::vector<double> targets(thresholds.begin(), thresholds.end());
    targets.push_back(min_sinr);
    for (const double target : targets) {
      // Far powers exercise large denominator exponents. Powers within a
      // few float ulps of the target put the denominator near 1 mW, where
      // the log steps finely enough to land on the target exactly.
      std::vector<float> powers = {-60.0f, 10.0f, 40.0f};
      float down = static_cast<float>(target);
      float up = down;
      powers.push_back(down);
      for (int k = 0; k < 32; ++k) {
        down = std::nextafter(down, -1e9f);
        up = std::nextafter(up, 1e9f);
        powers.push_back(down);
        powers.push_back(up);
      }
      int exact_hits = 0;
      for (const float rp : powers) {
        add_straddlers(target, rp, totals, rps, exact_hits);
      }
      EXPECT_GT(exact_hits, 0) << "no SINR landed exactly on " << target;
    }
    // Denominators 0 (SINR +inf), subnormal, +inf (SINR -inf) and NaN.
    for (const double total :
         {0.0, std::numeric_limits<double>::denorm_min(), 1e-310, kInf,
          kNaN}) {
      totals.push_back(total);
      rps.push_back(-60.0f);
    }

    // Prepending 0..2K-1 serverless cells shifts every case through every
    // lane position and every tail residue.
    for (std::size_t pad = 0; pad < 2 * static_cast<std::size_t>(K);
         ++pad) {
      const std::size_t cells = pad + totals.size();
      model::GridState state(cells);
      std::vector<double> density(cells, 0.0);
      for (std::size_t c = 0; c < pad; ++c) {
        state.total_mw[c] = c % 2 ? kNaN : 1e-9;  // ignored without a server
        density[c] = 1.0;
      }
      for (std::size_t k = 0; k < totals.size(); ++k) {
        const std::size_t c = pad + k;
        state.best[c] = static_cast<net::SectorId>(k % sectors);
        state.best_rp_dbm[c] = rps[k];
        state.total_mw[c] = totals[k];
        density[c] = k % 5 == 0 ? 0.0 : 1.0 + 0.25 * static_cast<double>(k % 7);
      }

      model::CqiMemo memo;
      std::vector<std::int8_t> cqi_only(cells);
      std::vector<double> loads(sectors), loads_only(sectors);
      model::cqi_and_loads_kernel(state, density, 0.0, min_sinr, memo,
                                  loads);
      const std::vector<std::int8_t>& fused = memo.cqi;
      model::cqi_kernel(state, 0.0, min_sinr, cqi_only);
      model::loads_kernel(state, density, 0.0, min_sinr, loads_only);

      std::vector<double> expect_loads(sectors, 0.0);
      for (std::size_t c = 0; c < cells; ++c) {
        const lte::Cqi expect =
            model::cell_cqi(state.best[c], state.best_rp_dbm[c],
                            state.best_mw[c], state.total_mw[c], 0.0,
                            min_sinr);
        EXPECT_EQ(fused[c], static_cast<std::int8_t>(expect))
            << "min=" << min_sinr << " pad=" << pad << " c=" << c;
        EXPECT_EQ(cqi_only[c], fused[c]) << "pad=" << pad << " c=" << c;
        if (expect > 0 && density[c] > 0.0) {
          expect_loads[static_cast<std::size_t>(state.best[c])] += density[c];
        }
      }
      for (std::size_t s = 0; s < sectors; ++s) {
        EXPECT_EQ(loads[s], expect_loads[s]) << "pad=" << pad;
        EXPECT_EQ(loads_only[s], expect_loads[s]) << "pad=" << pad;
      }
    }
  }
}

TEST(KernelIdentity, CqiCountersSeparateLibmDecidedCells) {
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& cells_counter = registry.counter("model.kernel.cqi_cells");
  obs::Counter& exact_counter =
      registry.counter("model.kernel.cqi_exact_cells");
  const auto& thresholds = lte::cqi_sinr_thresholds_db();
  // 4K + 1 cells, each a whole dB from every threshold, except one planted
  // on the service floor and one with a zero denominator.
  const std::size_t cells = 4 * static_cast<std::size_t>(K) + 1;
  model::GridState state(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    state.best[c] = 0;
    state.total_mw[c] = 1.0;  // 0 dBm denominator with noise 0
    state.best_rp_dbm[c] = 30.0f;
  }
  state.best_rp_dbm[0] = static_cast<float>(thresholds.front());
  state.total_mw[2] = 0.0;  // a zero denominator: SINR +inf, via libm
  std::vector<std::int8_t> cqi(cells);
  const std::uint64_t cells_before = cells_counter.value();
  const std::uint64_t exact_before = exact_counter.value();
  model::cqi_kernel(state, 0.0, static_cast<float>(thresholds.front()), cqi);
  EXPECT_EQ(cells_counter.value() - cells_before, cells);
  // The floor lane and the zero-denominator lane, plus the one-cell
  // scalar tail when K > 1.
  const std::uint64_t expect_exact = K == 1 ? 2 : 3;
  EXPECT_EQ(exact_counter.value() - exact_before, expect_exact);
  EXPECT_EQ(cqi[0], 1);
  EXPECT_EQ(cqi[1], lte::kCqiLevels);
  EXPECT_EQ(cqi[2], lte::kCqiLevels);
}

// ------------------------------------------------------ radio/pathloss --

TEST(RadioIdentity, GainRowMatchesPerCellGainDbi) {
  const radio::AntennaPattern antenna{radio::AntennaParams{}};
  std::mt19937_64 rng{404};
  std::uniform_real_distribution<float> az{-180.0f, 180.0f};
  std::uniform_real_distribution<float> el{-30.0f, 10.0f};
  std::uniform_real_distribution<float> iso{-160.0f, -60.0f};
  for (const radio::TiltIndex tilt : {-4, 0, 6}) {
    for (std::int32_t n = 0; n <= 3 * K + 3; ++n) {
      std::vector<float> viso(static_cast<std::size_t>(n));
      std::vector<float> vaz(static_cast<std::size_t>(n));
      std::vector<float> vel(static_cast<std::size_t>(n));
      for (auto& v : viso) v = iso(rng);
      for (auto& v : vaz) v = az(rng);
      for (auto& v : vel) v = el(rng);
      std::vector<float> out(static_cast<std::size_t>(n), 0.0f);
      antenna.gain_row(viso, vaz, vel, tilt, n, out);
      for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
        const float expect = static_cast<float>(
            static_cast<double>(viso[i]) +
            antenna.gain_dbi(vaz[i], vel[i], tilt));
        EXPECT_EQ(out[i], expect)
            << "tilt=" << int(tilt) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(RadioIdentity, IsotropicRowMatchesScalarReference) {
  // Hilly, shadowed terrain so the diffraction and clutter terms are live.
  terrain::TerrainParams tparams;
  tparams.shadowing_stddev_db = 6.0;
  tparams.urban_core_radius_m = 1200.0;
  tparams.urban_core = {2000.0, 1500.0};
  const terrain::Terrain terrain{99, tparams};
  const geo::GridMap grid{geo::Rect{{0.0, 0.0}, {4000.0, 3000.0}}, 100.0};
  const terrain::TerrainGridCache cache{terrain, grid};
  const radio::PropagationModel model{&terrain, radio::SpmParams{}};

  const radio::TransmitterSite tx{{1234.0, 987.0}, 30.0, 135.0};
  const radio::SiteContext site = model.site_context(tx, cache);
  radio::RadialProfileTable profiles;
  profiles.build(site, 3000.0, cache, model.params().profile_step_m);

  std::mt19937_64 rng{505};
  std::uniform_int_distribution<std::int32_t> row_dist{0, grid.rows() - 1};
  // Runs of every residue length at random row positions (clamped to the
  // row), plus one full-row run: the batched kernel must agree bitwise
  // with the reference loop everywhere, tails included.
  std::vector<std::int32_t> lengths;
  for (std::int32_t n = 1; n <= 3 * K + 3; ++n) lengths.push_back(n);
  lengths.push_back(grid.cols());
  lengths.push_back(129);  // crosses the internal chunk boundary
  lengths.push_back(130);
  for (const std::int32_t want : lengths) {
    const std::int32_t row = row_dist(rng);
    const std::int32_t n = std::min(want, grid.cols());
    const std::int32_t col0 =
        static_cast<std::int32_t>(rng() % static_cast<std::uint64_t>(
                                      grid.cols() - n + 1));
    const geo::GridIndex first = row * grid.cols() + col0;
    const auto un = static_cast<std::size_t>(n);
    std::vector<float> iso_a(un), az_a(un), el_a(un);
    std::vector<float> iso_b(un, 1.0f), az_b(un, 1.0f), el_b(un, 1.0f);
    model.isotropic_row_cached(site, first, n, cache, profiles, iso_a, az_a,
                               el_a);
    model.isotropic_row_reference(site, first, n, cache, profiles, iso_b,
                                  az_b, el_b);
    for (std::size_t i = 0; i < un; ++i) {
      EXPECT_EQ(iso_a[i], iso_b[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(az_a[i], az_b[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(el_a[i], el_b[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(PathlossIdentity, FootprintFloorAndLinearMatchScalar) {
  std::mt19937_64 rng{606};
  std::uniform_real_distribution<double> u{0.0, 1.0};
  std::uniform_real_distribution<float> g{-180.0f, -60.0f};
  // Window sizes sweeping the lane residues; values straddling the floor,
  // NaNs, and the exact kFloorDb boundary (<= floors, so the boundary
  // value itself must be treated as uncovered).
  for (std::int32_t cols = 1; cols <= 2 * K + 3; ++cols) {
    const std::int32_t rows = 3;
    std::vector<float> window(static_cast<std::size_t>(cols) * rows);
    for (auto& v : window) {
      const double r = u(rng);
      if (r < 0.2) {
        v = kNaNf;
      } else if (r < 0.3) {
        v = pathloss::SectorFootprint::kFloorDb;
      } else {
        v = g(rng);
      }
    }
    const std::vector<float> original = window;
    const pathloss::SectorFootprint fp{10 + cols, 10, 2, 3, cols, rows,
                                       std::move(window)};

    std::size_t expect_covered = 0;
    for (std::size_t i = 0; i < original.size(); ++i) {
      const float v = original[i];
      const bool covered =
          !std::isnan(v) && v > pathloss::SectorFootprint::kFloorDb;
      const std::int32_t r = static_cast<std::int32_t>(i) / cols;
      const std::int32_t c = static_cast<std::int32_t>(i) % cols;
      const float stored = fp.window_row(r)[static_cast<std::size_t>(c)];
      const float lin = fp.linear_row(r)[static_cast<std::size_t>(c)];
      if (covered) {
        ++expect_covered;
        EXPECT_EQ(stored, v) << "cols=" << cols << " i=" << i;
        EXPECT_EQ(lin, static_cast<float>(
                           std::pow(10.0, static_cast<double>(v) / 10.0)))
            << "cols=" << cols << " i=" << i;
      } else {
        EXPECT_TRUE(std::isnan(stored)) << "cols=" << cols << " i=" << i;
        EXPECT_EQ(lin, 0.0f) << "cols=" << cols << " i=" << i;
      }
    }
    EXPECT_EQ(fp.covered_count(), expect_covered) << "cols=" << cols;
  }
}

// ---------------------------------------------------------- linear twin --

float libm_linear(float gain) {
  return static_cast<float>(std::pow(10.0, static_cast<double>(gain) / 10.0));
}

float float_from_bits(std::uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof f);
  return f;
}

std::uint32_t bits_of(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof bits);
  return bits;
}

/// True when libm's double 10^(g/10) lies within 2^band relative of a
/// float rounding midpoint. At band -41 the kernel's approximation (error
/// < 2^-45) lies within its 2^-40 guard band, so the lane must go to libm;
/// beyond 2^-39 it lies outside, so the lane must not.
bool near_float_midpoint(float gain, int band = -41) {
  const double exact = std::pow(10.0, static_cast<double>(gain) / 10.0);
  const auto f = static_cast<float>(exact);
  const float inf = std::numeric_limits<float>::infinity();
  double nearest = std::numeric_limits<double>::infinity();
  for (const float other : {std::nextafter(f, -inf), std::nextafter(f, inf)}) {
    // Two floats' mean is exact in double.
    const double mid = (static_cast<double>(f) + static_cast<double>(other)) /
                       2.0;
    nearest = std::min(nearest, std::fabs(exact - mid));
  }
  return nearest < std::ldexp(exact, band);
}

/// Runs linear_twin over `gains` (in chunks of 4099 cells, so every chunk
/// ends on a partial block) and expects every lane bitwise equal to libm.
/// Returns the kernel's counts summed over the chunks.
pathloss::LinearTwinCounts expect_twin_matches_libm(
    const std::vector<float>& gains, const std::string& label) {
  pathloss::LinearTwinCounts total;
  std::vector<float> linear;
  constexpr std::size_t kChunk = 4099;
  for (std::size_t at = 0; at < gains.size(); at += kChunk) {
    const std::size_t n = std::min(kChunk, gains.size() - at);
    linear.assign(n + 1, -1.0f);
    const pathloss::LinearTwinCounts counts =
        pathloss::linear_twin(gains.data() + at, linear.data(), n);
    total.covered += counts.covered;
    total.exact += counts.exact;
    for (std::size_t i = 0; i < n; ++i) {
      const float g = gains[at + i];
      const float want = std::isnan(g) ? 0.0f : libm_linear(g);
      if (bits_of(linear[i]) != bits_of(want)) {
        ADD_FAILURE() << label << ": g=" << g << " (bits " << std::hex
                      << bits_of(g) << std::dec << ") got " << linear[i]
                      << " want " << want;
        return total;
      }
    }
    EXPECT_EQ(linear[n], -1.0f) << label << ": wrote past the end";
  }
  return total;
}

TEST(PathlossIdentity, LinearTwinMatchesLibmOverFullBinadesAndAStride) {
  // Every float of three binades inside the [-170, +40] dB gain range:
  // [-128, -64) (typical path gains), [-2, -1) and [16, 32) (antenna
  // gains near boresight, y on both sides of 0).
  for (const auto& [lo, hi] : {std::pair{-128.0f, -64.0f},
                               std::pair{-2.0f, -1.0f},
                               std::pair{16.0f, 32.0f}}) {
    std::vector<float> gains;
    const std::uint32_t a = bits_of(lo);
    const std::uint32_t b = bits_of(hi);
    // Negative floats order by descending bit pattern: walk from the
    // smaller magnitude up.
    for (std::uint32_t bits = std::min(a, b); bits <= std::max(a, b);
         ++bits) {
      const float g = float_from_bits(bits);
      if (g >= lo && g < hi) gains.push_back(g);
    }
    ASSERT_EQ(gains.size(), std::size_t{1} << 23) << lo;
    const auto counts =
        expect_twin_matches_libm(gains, "binade " + std::to_string(lo));
    EXPECT_EQ(counts.covered, gains.size());
    EXPECT_LT(counts.exact, gains.size() / 1000) << lo;
  }
  // The rest of [-170, +40] at a prime stride over the bit patterns, plus
  // the range ends.
  std::vector<float> gains = {-170.0f, std::nextafter(-170.0f, 0.0f), -0.0f,
                              0.0f, 40.0f};
  for (std::uint32_t bits = 0; bits <= bits_of(40.0f); bits += 997) {
    gains.push_back(float_from_bits(bits));
  }
  for (std::uint32_t bits = bits_of(-0.0f); bits <= bits_of(-170.0f);
       bits += 997) {
    gains.push_back(float_from_bits(bits));
  }
  const auto counts = expect_twin_matches_libm(gains, "stride");
  EXPECT_EQ(counts.covered, gains.size());
  EXPECT_LT(counts.exact, gains.size() / 1000);
}

TEST(PathlossIdentity, LinearTwinSendsGuardBandAndOutOfRangeLanesToLibm) {
  // Lanes whose libm value sits within 2^-41 of a float midpoint, found
  // by scanning a stretch of [-128, -64): the approximation cannot tell
  // which float they round to, so each must be libm's.
  std::vector<float> banded;
  for (std::uint32_t bits = bits_of(-64.0f); banded.size() < 24; ++bits) {
    ASSERT_LT(bits, bits_of(-128.0f)) << "too few guard-band lanes";
    const float g = float_from_bits(bits);
    if (near_float_midpoint(g)) banded.push_back(g);
  }
  // Inputs outside |y| <= 30 and infinities: libm too.
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> out_of_range = {305.0f, -305.0f, 380.0f, -380.0f,
                                           inf, -inf};
  // Every lane position and tail residue: rows of n cells holding one
  // special lane at each offset, the rest NaN or ordinary gains.
  std::size_t rows = 0;
  for (std::size_t n = 1; n <= static_cast<std::size_t>(3 * K + 3); ++n) {
    for (std::size_t at = 0; at < n; ++at) {
      for (const std::vector<float>* special :
           {static_cast<const std::vector<float>*>(&banded), &out_of_range}) {
        for (const float g : *special) {
          std::vector<float> row(n, kNaNf);
          row[at] = g;
          std::vector<float> linear(n, -1.0f);
          const auto counts =
              pathloss::linear_twin(row.data(), linear.data(), n);
          EXPECT_EQ(counts.covered, 1u);
          EXPECT_EQ(counts.exact, 1u) << "g=" << g << " n=" << n;
          for (std::size_t i = 0; i < n; ++i) {
            const float want = i == at ? libm_linear(g) : 0.0f;
            EXPECT_EQ(bits_of(linear[i]), bits_of(want))
                << "g=" << g << " n=" << n << " at=" << at << " i=" << i;
          }
          ++rows;
        }
      }
    }
  }
  EXPECT_GT(rows, 0u);
}

TEST(PathlossIdentity, LinearExactCellsCounterCountsLibmLanes) {
  // A footprint whose window holds guard-band lanes, ordinary lanes and
  // holes: pathloss.linear.cells grows by the covered cells and
  // pathloss.linear.exact_cells by the lanes libm decided.
  std::vector<float> window;
  std::size_t banded = 0;
  for (std::uint32_t bits = bits_of(-64.0f); banded < 5; ++bits) {
    const float g = float_from_bits(bits);
    if (near_float_midpoint(g)) {
      window.push_back(g);
      window.push_back(kNaNf);
      ++banded;
    }
  }
  std::size_t ordinary = 0;
  for (float g = -100.0f; g < -90.0f; g += 0.37f) {
    if (near_float_midpoint(g, -39)) continue;
    window.push_back(g);
    ++ordinary;
  }
  const auto cols = static_cast<std::int32_t>(window.size());
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& cells = registry.counter("pathloss.linear.cells");
  obs::Counter& exact = registry.counter("pathloss.linear.exact_cells");
  const std::uint64_t cells_before = cells.value();
  const std::uint64_t exact_before = exact.value();
  const pathloss::SectorFootprint fp{cols, 1, 0, 0, cols, 1,
                                     std::move(window)};
  EXPECT_EQ(fp.covered_count(), banded + ordinary);
  EXPECT_EQ(cells.value() - cells_before, banded + ordinary);
  EXPECT_EQ(exact.value() - exact_before, banded);
}

}  // namespace
}  // namespace magus
