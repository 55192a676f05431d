#pragma once
// util::simd — a small portable SIMD layer for the evaluation kernels.
//
// One backend is selected at compile time via MAGUS_SIMD_LEVEL (set by the
// MAGUS_SIMD CMake option; auto-detected from the compiler's target macros
// when the option is absent):
//
//   0  scalar fallback (kWidth = 1) — the reference semantics
//   1  SSE2  (kWidth = 2)
//   2  AVX2  (kWidth = 4, requires -mavx2)
//   3  NEON  (kWidth = 2, aarch64)
//
// The kernel contract is *bitwise identity across backends*: a kernel
// written against this API produces the same bytes at every lane width.
// That works because the API exposes only exactly-rounded IEEE-754
// operations (add/sub/mul/div/sqrt/min/max/compare/convert, plus the
// bit-exact split_exp_d and pow2_d) — one vector lane performs the
// identical rounding the scalar expression performs — and because the
// layer deliberately has NO fused multiply-add: the build pins
// -ffp-contract=off so neither the kernels here nor the scalar fallback
// contract a*b+c into a single rounding. Transcendentals
// (pow/log10/atan2) are not reproducible lane-for-lane across libm
// implementations and are intentionally absent: libm decides every value
// that is used, and a vector approximation built from these ops may only
// classify, or pick which float a value rounds to, outside a stated guard
// band (see DESIGN.md §15).
//
// Semantics notes (all backends match these exactly):
//  - min_*/max_*(a, b) return b when a == b or either is NaN (the MINPD /
//    MAXPD rule). Callers translating std::min/std::max must pick the
//    argument order that matches on the ±0.0 and equal-value cases.
//  - Comparisons return all-ones lane masks; any compare with NaN is false
//    (ordered, non-signaling). blend_*(m, a, b) = m ? a : b per lane.
//  - Masked gathers never touch memory in inactive lanes (safe for
//    out-of-range indices there); inactive lanes take `fill`.
//  - Partial loads/stores move exactly n <= kWidth leading lanes;
//    loadu_*_partial fills the rest with `fill`, storeu_*_partial leaves
//    memory beyond n untouched.
//
// vfloat and vint carry kWidth lanes (the *double* width), so float and
// int data gathered for a block of cells pairs 1:1 with vdouble math.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#ifndef MAGUS_SIMD_LEVEL
#if defined(__AVX2__)
#define MAGUS_SIMD_LEVEL 2
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define MAGUS_SIMD_LEVEL 3
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#define MAGUS_SIMD_LEVEL 1
#else
#define MAGUS_SIMD_LEVEL 0
#endif
#endif

#if MAGUS_SIMD_LEVEL == 2 && !defined(__AVX2__)
#error "MAGUS_SIMD_LEVEL=2 requires -mavx2 (let CMake's MAGUS_SIMD option add it)"
#endif
#if MAGUS_SIMD_LEVEL == 1 && !(defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64))
#error "MAGUS_SIMD_LEVEL=1 requires SSE2"
#endif
#if MAGUS_SIMD_LEVEL == 3 && !(defined(__aarch64__) && defined(__ARM_NEON))
#error "MAGUS_SIMD_LEVEL=3 requires aarch64 NEON"
#endif

#if MAGUS_SIMD_LEVEL == 1 || MAGUS_SIMD_LEVEL == 2
#include <immintrin.h>
#elif MAGUS_SIMD_LEVEL == 3
#include <arm_neon.h>
#endif

namespace magus::util::simd {

inline constexpr int kLevel = MAGUS_SIMD_LEVEL;

namespace detail {
// IEEE-754 binary64 fields used by split_exp_d: the 52 fraction bits, the
// bit pattern of 1.0 (biased exponent 1023), and 2^52, whose low mantissa
// bits can hold the 11-bit exponent field as an exact integer addend.
inline constexpr std::uint64_t kFractionBits = 0x000FFFFFFFFFFFFFull;
inline constexpr std::uint64_t kOneBits = 0x3FF0000000000000ull;
inline constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;
inline constexpr double kTwo52PlusBias = 4503599627370496.0 + 1023.0;
}  // namespace detail

#if MAGUS_SIMD_LEVEL == 2
// ---------------------------------------------------------------- AVX2 --
inline constexpr int kWidth = 4;
inline constexpr const char* kBackendName = "avx2";

struct vdouble { __m256d v; };
struct vfloat  { __m128  v; };
struct vint    { __m128i v; };
struct dmask   { __m256d v; };  // all-ones 64-bit lanes
struct fmask   { __m128  v; };  // all-ones 32-bit lanes (floats and ints)

inline vdouble set1_d(double x) { return {_mm256_set1_pd(x)}; }
inline vfloat  set1_f(float x)  { return {_mm_set1_ps(x)}; }
inline vint    set1_i(std::int32_t x) { return {_mm_set1_epi32(x)}; }

inline vdouble loadu_d(const double* p) { return {_mm256_loadu_pd(p)}; }
inline vfloat  loadu_f(const float* p)  { return {_mm_loadu_ps(p)}; }
inline vint    loadu_i(const std::int32_t* p) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
}
inline void storeu_d(double* p, vdouble a) { _mm256_storeu_pd(p, a.v); }
inline void storeu_f(float* p, vfloat a)   { _mm_storeu_ps(p, a.v); }
inline void storeu_i(std::int32_t* p, vint a) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
}

namespace detail {
// 8 live then 8 dead 32-bit lanes; pointer arithmetic carves an n-lane mask.
alignas(32) inline constexpr std::int32_t kTail32[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
alignas(32) inline constexpr std::int64_t kTail64[8] = {
    -1, -1, -1, -1, 0, 0, 0, 0};
inline __m256i tail_mask64(int n) {
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kTail64 + (4 - n)));
}
inline __m128i tail_mask32(int n) {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kTail32 + (8 - n)));
}
}  // namespace detail

inline vdouble loadu_d_partial(const double* p, int n, double fill) {
  __m256i m = detail::tail_mask64(n);
  __m256d v = _mm256_maskload_pd(p, m);
  return {_mm256_blendv_pd(_mm256_set1_pd(fill), v, _mm256_castsi256_pd(m))};
}
inline vfloat loadu_f_partial(const float* p, int n, float fill) {
  __m128i m = detail::tail_mask32(n);
  __m128 v = _mm_maskload_ps(p, m);
  return {_mm_blendv_ps(_mm_set1_ps(fill), v, _mm_castsi128_ps(m))};
}
inline vint loadu_i_partial(const std::int32_t* p, int n, std::int32_t fill) {
  __m128i m = detail::tail_mask32(n);
  __m128i v = _mm_maskload_epi32(p, m);
  return {_mm_blendv_epi8(_mm_set1_epi32(fill), v, m)};
}
inline void storeu_d_partial(double* p, vdouble a, int n) {
  _mm256_maskstore_pd(p, detail::tail_mask64(n), a.v);
}
inline void storeu_f_partial(float* p, vfloat a, int n) {
  _mm_maskstore_ps(p, detail::tail_mask32(n), a.v);
}
inline void storeu_i_partial(std::int32_t* p, vint a, int n) {
  _mm_maskstore_epi32(p, detail::tail_mask32(n), a.v);
}

inline vdouble add_d(vdouble a, vdouble b) { return {_mm256_add_pd(a.v, b.v)}; }
inline vdouble sub_d(vdouble a, vdouble b) { return {_mm256_sub_pd(a.v, b.v)}; }
inline vdouble mul_d(vdouble a, vdouble b) { return {_mm256_mul_pd(a.v, b.v)}; }
inline vdouble div_d(vdouble a, vdouble b) { return {_mm256_div_pd(a.v, b.v)}; }
inline vdouble min_d(vdouble a, vdouble b) { return {_mm256_min_pd(a.v, b.v)}; }
inline vdouble max_d(vdouble a, vdouble b) { return {_mm256_max_pd(a.v, b.v)}; }
inline vdouble sqrt_d(vdouble a) { return {_mm256_sqrt_pd(a.v)}; }
inline vdouble neg_d(vdouble a) {
  return {_mm256_xor_pd(a.v, _mm256_set1_pd(-0.0))};
}
inline vfloat add_f(vfloat a, vfloat b) { return {_mm_add_ps(a.v, b.v)}; }
inline vfloat sub_f(vfloat a, vfloat b) { return {_mm_sub_ps(a.v, b.v)}; }
inline vfloat mul_f(vfloat a, vfloat b) { return {_mm_mul_ps(a.v, b.v)}; }
inline vfloat min_f(vfloat a, vfloat b) { return {_mm_min_ps(a.v, b.v)}; }
inline vfloat max_f(vfloat a, vfloat b) { return {_mm_max_ps(a.v, b.v)}; }
inline vint add_i(vint a, vint b) { return {_mm_add_epi32(a.v, b.v)}; }
inline vint sub_i(vint a, vint b) { return {_mm_sub_epi32(a.v, b.v)}; }

inline vdouble to_double(vfloat a) { return {_mm256_cvtps_pd(a.v)}; }
inline vfloat to_float(vdouble a) { return {_mm256_cvtpd_ps(a.v)}; }

inline dmask cmp_gt_d(vdouble a, vdouble b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
}
inline dmask cmp_lt_d(vdouble a, vdouble b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
}
inline dmask cmp_le_d(vdouble a, vdouble b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
}
inline dmask cmp_ge_d(vdouble a, vdouble b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
}
inline dmask cmp_eq_d(vdouble a, vdouble b) {
  return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
}
inline fmask cmp_gt_f(vfloat a, vfloat b) { return {_mm_cmpgt_ps(a.v, b.v)}; }
inline fmask cmp_lt_f(vfloat a, vfloat b) { return {_mm_cmplt_ps(a.v, b.v)}; }
inline fmask cmp_le_f(vfloat a, vfloat b) { return {_mm_cmple_ps(a.v, b.v)}; }
inline fmask cmp_ge_f(vfloat a, vfloat b) { return {_mm_cmpge_ps(a.v, b.v)}; }
inline fmask cmp_eq_f(vfloat a, vfloat b) { return {_mm_cmpeq_ps(a.v, b.v)}; }
inline fmask isnan_f(vfloat a) { return {_mm_cmpunord_ps(a.v, a.v)}; }
inline fmask cmp_gt_i(vint a, vint b) {
  return {_mm_castsi128_ps(_mm_cmpgt_epi32(a.v, b.v))};
}
inline fmask cmp_eq_i(vint a, vint b) {
  return {_mm_castsi128_ps(_mm_cmpeq_epi32(a.v, b.v))};
}

inline fmask m_and(fmask a, fmask b) { return {_mm_and_ps(a.v, b.v)}; }
inline fmask m_or(fmask a, fmask b)  { return {_mm_or_ps(a.v, b.v)}; }
inline fmask m_not(fmask a) {
  return {_mm_xor_ps(a.v, _mm_castsi128_ps(_mm_set1_epi32(-1)))};
}
inline dmask m_and(dmask a, dmask b) { return {_mm256_and_pd(a.v, b.v)}; }
inline dmask m_or(dmask a, dmask b)  { return {_mm256_or_pd(a.v, b.v)}; }
inline dmask m_not(dmask a) {
  return {_mm256_xor_pd(a.v, _mm256_castsi256_pd(_mm256_set1_epi64x(-1)))};
}
inline dmask widen(fmask m) {
  // Sign-extend each 32-bit all-ones lane to 64 bits.
  return {_mm256_castsi256_pd(_mm256_cvtepi32_epi64(_mm_castps_si128(m.v)))};
}
inline fmask narrow(dmask m) {
  __m256i idx = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  __m256i packed = _mm256_permutevar8x32_epi32(_mm256_castpd_si256(m.v), idx);
  return {_mm_castsi128_ps(_mm256_castsi256_si128(packed))};
}
inline unsigned to_bits(fmask m) {
  return static_cast<unsigned>(_mm_movemask_ps(m.v));
}
inline unsigned to_bits(dmask m) {
  return static_cast<unsigned>(_mm256_movemask_pd(m.v));
}
inline bool any(fmask m) { return to_bits(m) != 0; }
inline bool any(dmask m) { return to_bits(m) != 0; }

inline vdouble blend_d(dmask m, vdouble a, vdouble b) {
  return {_mm256_blendv_pd(b.v, a.v, m.v)};
}
inline vfloat blend_f(fmask m, vfloat a, vfloat b) {
  return {_mm_blendv_ps(b.v, a.v, m.v)};
}
inline vint blend_i(fmask m, vint a, vint b) {
  return {_mm_blendv_epi8(b.v, a.v, _mm_castps_si128(m.v))};
}
inline vint mask_i(fmask m) { return {_mm_castps_si128(m.v)}; }

inline vdouble gather_d(const double* base, vint idx, dmask m, double fill) {
  return {_mm256_mask_i32gather_pd(_mm256_set1_pd(fill), base, idx.v, m.v, 8)};
}
inline vfloat gather_f(const float* base, vint idx, fmask m, float fill) {
  return {_mm_mask_i32gather_ps(_mm_set1_ps(fill), base, idx.v, m.v, 4)};
}
inline vint gather_i(const std::int32_t* base, vint idx, fmask m,
                     std::int32_t fill) {
  return {_mm_mask_i32gather_epi32(_mm_set1_epi32(fill), base, idx.v,
                                   _mm_castps_si128(m.v), 4)};
}

inline double extract_d(vdouble a, int lane) {
  alignas(32) double out[4];
  _mm256_store_pd(out, a.v);
  return out[lane];
}
inline float extract_f(vfloat a, int lane) {
  alignas(16) float out[4];
  _mm_store_ps(out, a.v);
  return out[lane];
}
inline std::int32_t extract_i(vint a, int lane) {
  alignas(16) std::int32_t out[4];
  _mm_store_si128(reinterpret_cast<__m128i*>(out), a.v);
  return out[lane];
}

inline vdouble iota_d() { return {_mm256_setr_pd(0.0, 1.0, 2.0, 3.0)}; }

namespace detail {
inline vdouble pow2_parts(vdouble k) {
  const __m256i bits =
      _mm256_castpd_si256(_mm256_add_pd(k.v, _mm256_set1_pd(kTwo52PlusBias)));
  return {_mm256_castsi256_pd(_mm256_slli_epi64(bits, 52))};
}
inline void exp_split_parts(vdouble a, vdouble& mant, vdouble& expo) {
  const __m256i bits = _mm256_castpd_si256(a.v);
  mant.v = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(kFractionBits)),
      _mm256_set1_epi64x(kOneBits)));
  const __m256i field = _mm256_and_si256(_mm256_srli_epi64(bits, 52),
                                         _mm256_set1_epi64x(0x7FF));
  expo.v = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(field, _mm256_set1_epi64x(kTwo52Bits))),
      _mm256_set1_pd(kTwo52PlusBias));
}
}  // namespace detail

#elif MAGUS_SIMD_LEVEL == 1
// ---------------------------------------------------------------- SSE2 --
inline constexpr int kWidth = 2;
inline constexpr const char* kBackendName = "sse2";

// vfloat/vint hold their two meaningful lanes in the low half of a 128-bit
// register; the upper lanes are unspecified and never observed.
struct vdouble { __m128d v; };
struct vfloat  { __m128  v; };
struct vint    { __m128i v; };
struct dmask   { __m128d v; };
struct fmask   { __m128  v; };

inline vdouble set1_d(double x) { return {_mm_set1_pd(x)}; }
inline vfloat  set1_f(float x)  { return {_mm_set1_ps(x)}; }
inline vint    set1_i(std::int32_t x) { return {_mm_set1_epi32(x)}; }

inline vdouble loadu_d(const double* p) { return {_mm_loadu_pd(p)}; }
inline vfloat loadu_f(const float* p) {
  return {_mm_castsi128_ps(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)))};
}
inline vint loadu_i(const std::int32_t* p) {
  return {_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p))};
}
inline void storeu_d(double* p, vdouble a) { _mm_storeu_pd(p, a.v); }
inline void storeu_f(float* p, vfloat a) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), _mm_castps_si128(a.v));
}
inline void storeu_i(std::int32_t* p, vint a) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), a.v);
}

inline vdouble loadu_d_partial(const double* p, int n, double fill) {
  double out[2] = {fill, fill};
  for (int i = 0; i < n; ++i) out[i] = p[i];
  return {_mm_loadu_pd(out)};
}
inline vfloat loadu_f_partial(const float* p, int n, float fill) {
  float out[2] = {fill, fill};
  for (int i = 0; i < n; ++i) out[i] = p[i];
  return loadu_f(out);
}
inline vint loadu_i_partial(const std::int32_t* p, int n, std::int32_t fill) {
  std::int32_t out[2] = {fill, fill};
  for (int i = 0; i < n; ++i) out[i] = p[i];
  return loadu_i(out);
}
inline void storeu_d_partial(double* p, vdouble a, int n) {
  double out[2];
  _mm_storeu_pd(out, a.v);
  for (int i = 0; i < n; ++i) p[i] = out[i];
}
inline void storeu_f_partial(float* p, vfloat a, int n) {
  float out[2];
  storeu_f(out, a);
  for (int i = 0; i < n; ++i) p[i] = out[i];
}
inline void storeu_i_partial(std::int32_t* p, vint a, int n) {
  std::int32_t out[2];
  storeu_i(out, a);
  for (int i = 0; i < n; ++i) p[i] = out[i];
}

inline vdouble add_d(vdouble a, vdouble b) { return {_mm_add_pd(a.v, b.v)}; }
inline vdouble sub_d(vdouble a, vdouble b) { return {_mm_sub_pd(a.v, b.v)}; }
inline vdouble mul_d(vdouble a, vdouble b) { return {_mm_mul_pd(a.v, b.v)}; }
inline vdouble div_d(vdouble a, vdouble b) { return {_mm_div_pd(a.v, b.v)}; }
inline vdouble min_d(vdouble a, vdouble b) { return {_mm_min_pd(a.v, b.v)}; }
inline vdouble max_d(vdouble a, vdouble b) { return {_mm_max_pd(a.v, b.v)}; }
inline vdouble sqrt_d(vdouble a) { return {_mm_sqrt_pd(a.v)}; }
inline vdouble neg_d(vdouble a) {
  return {_mm_xor_pd(a.v, _mm_set1_pd(-0.0))};
}
inline vfloat add_f(vfloat a, vfloat b) { return {_mm_add_ps(a.v, b.v)}; }
inline vfloat sub_f(vfloat a, vfloat b) { return {_mm_sub_ps(a.v, b.v)}; }
inline vfloat mul_f(vfloat a, vfloat b) { return {_mm_mul_ps(a.v, b.v)}; }
inline vfloat min_f(vfloat a, vfloat b) { return {_mm_min_ps(a.v, b.v)}; }
inline vfloat max_f(vfloat a, vfloat b) { return {_mm_max_ps(a.v, b.v)}; }
inline vint add_i(vint a, vint b) { return {_mm_add_epi32(a.v, b.v)}; }
inline vint sub_i(vint a, vint b) { return {_mm_sub_epi32(a.v, b.v)}; }

inline vdouble to_double(vfloat a) { return {_mm_cvtps_pd(a.v)}; }
inline vfloat to_float(vdouble a) { return {_mm_cvtpd_ps(a.v)}; }

inline dmask cmp_gt_d(vdouble a, vdouble b) { return {_mm_cmpgt_pd(a.v, b.v)}; }
inline dmask cmp_lt_d(vdouble a, vdouble b) { return {_mm_cmplt_pd(a.v, b.v)}; }
inline dmask cmp_le_d(vdouble a, vdouble b) { return {_mm_cmple_pd(a.v, b.v)}; }
inline dmask cmp_ge_d(vdouble a, vdouble b) { return {_mm_cmpge_pd(a.v, b.v)}; }
inline dmask cmp_eq_d(vdouble a, vdouble b) { return {_mm_cmpeq_pd(a.v, b.v)}; }
inline fmask cmp_gt_f(vfloat a, vfloat b) { return {_mm_cmpgt_ps(a.v, b.v)}; }
inline fmask cmp_lt_f(vfloat a, vfloat b) { return {_mm_cmplt_ps(a.v, b.v)}; }
inline fmask cmp_le_f(vfloat a, vfloat b) { return {_mm_cmple_ps(a.v, b.v)}; }
inline fmask cmp_ge_f(vfloat a, vfloat b) { return {_mm_cmpge_ps(a.v, b.v)}; }
inline fmask cmp_eq_f(vfloat a, vfloat b) { return {_mm_cmpeq_ps(a.v, b.v)}; }
inline fmask isnan_f(vfloat a) { return {_mm_cmpunord_ps(a.v, a.v)}; }
inline fmask cmp_gt_i(vint a, vint b) {
  return {_mm_castsi128_ps(_mm_cmpgt_epi32(a.v, b.v))};
}
inline fmask cmp_eq_i(vint a, vint b) {
  return {_mm_castsi128_ps(_mm_cmpeq_epi32(a.v, b.v))};
}

inline fmask m_and(fmask a, fmask b) { return {_mm_and_ps(a.v, b.v)}; }
inline fmask m_or(fmask a, fmask b)  { return {_mm_or_ps(a.v, b.v)}; }
inline fmask m_not(fmask a) {
  return {_mm_xor_ps(a.v, _mm_castsi128_ps(_mm_set1_epi32(-1)))};
}
inline dmask m_and(dmask a, dmask b) { return {_mm_and_pd(a.v, b.v)}; }
inline dmask m_or(dmask a, dmask b)  { return {_mm_or_pd(a.v, b.v)}; }
inline dmask m_not(dmask a) {
  return {_mm_xor_pd(a.v, _mm_castsi128_pd(_mm_set1_epi32(-1)))};
}
inline dmask widen(fmask m) {
  __m128i mi = _mm_castps_si128(m.v);
  return {_mm_castsi128_pd(_mm_unpacklo_epi32(mi, mi))};
}
inline fmask narrow(dmask m) {
  __m128i mi = _mm_castpd_si128(m.v);
  return {_mm_castsi128_ps(_mm_shuffle_epi32(mi, _MM_SHUFFLE(3, 2, 2, 0)))};
}
inline unsigned to_bits(fmask m) {
  return static_cast<unsigned>(_mm_movemask_ps(m.v)) & 0x3u;
}
inline unsigned to_bits(dmask m) {
  return static_cast<unsigned>(_mm_movemask_pd(m.v));
}
inline bool any(fmask m) { return to_bits(m) != 0; }
inline bool any(dmask m) { return to_bits(m) != 0; }

inline vdouble blend_d(dmask m, vdouble a, vdouble b) {
  return {_mm_or_pd(_mm_and_pd(m.v, a.v), _mm_andnot_pd(m.v, b.v))};
}
inline vfloat blend_f(fmask m, vfloat a, vfloat b) {
  return {_mm_or_ps(_mm_and_ps(m.v, a.v), _mm_andnot_ps(m.v, b.v))};
}
inline vint blend_i(fmask m, vint a, vint b) {
  __m128i mi = _mm_castps_si128(m.v);
  return {_mm_or_si128(_mm_and_si128(mi, a.v), _mm_andnot_si128(mi, b.v))};
}
inline vint mask_i(fmask m) { return {_mm_castps_si128(m.v)}; }

inline vdouble gather_d(const double* base, vint idx, dmask m, double fill) {
  std::int32_t ix[2];
  storeu_i(ix, idx);
  unsigned bits = to_bits(m);
  double out[2];
  out[0] = (bits & 1u) ? base[ix[0]] : fill;
  out[1] = (bits & 2u) ? base[ix[1]] : fill;
  return {_mm_loadu_pd(out)};
}
inline vfloat gather_f(const float* base, vint idx, fmask m, float fill) {
  std::int32_t ix[2];
  storeu_i(ix, idx);
  unsigned bits = to_bits(m);
  float out[2];
  out[0] = (bits & 1u) ? base[ix[0]] : fill;
  out[1] = (bits & 2u) ? base[ix[1]] : fill;
  return loadu_f(out);
}
inline vint gather_i(const std::int32_t* base, vint idx, fmask m,
                     std::int32_t fill) {
  std::int32_t ix[2];
  storeu_i(ix, idx);
  unsigned bits = to_bits(m);
  std::int32_t out[2];
  out[0] = (bits & 1u) ? base[ix[0]] : fill;
  out[1] = (bits & 2u) ? base[ix[1]] : fill;
  return loadu_i(out);
}

inline double extract_d(vdouble a, int lane) {
  double out[2];
  _mm_storeu_pd(out, a.v);
  return out[lane];
}
inline float extract_f(vfloat a, int lane) {
  float out[2];
  storeu_f(out, a);
  return out[lane];
}
inline std::int32_t extract_i(vint a, int lane) {
  std::int32_t out[2];
  storeu_i(out, a);
  return out[lane];
}

inline vdouble iota_d() { return {_mm_setr_pd(0.0, 1.0)}; }

namespace detail {
inline vdouble pow2_parts(vdouble k) {
  const __m128i bits =
      _mm_castpd_si128(_mm_add_pd(k.v, _mm_set1_pd(kTwo52PlusBias)));
  return {_mm_castsi128_pd(_mm_slli_epi64(bits, 52))};
}
inline void exp_split_parts(vdouble a, vdouble& mant, vdouble& expo) {
  const __m128i bits = _mm_castpd_si128(a.v);
  mant.v = _mm_castsi128_pd(
      _mm_or_si128(_mm_and_si128(bits, _mm_set1_epi64x(kFractionBits)),
                   _mm_set1_epi64x(kOneBits)));
  const __m128i field =
      _mm_and_si128(_mm_srli_epi64(bits, 52), _mm_set1_epi64x(0x7FF));
  expo.v = _mm_sub_pd(
      _mm_castsi128_pd(_mm_or_si128(field, _mm_set1_epi64x(kTwo52Bits))),
      _mm_set1_pd(kTwo52PlusBias));
}
}  // namespace detail

#elif MAGUS_SIMD_LEVEL == 3
// ---------------------------------------------------------------- NEON --
inline constexpr int kWidth = 2;
inline constexpr const char* kBackendName = "neon";

struct vdouble { float64x2_t v; };
struct vfloat  { float32x2_t v; };
struct vint    { int32x2_t v; };
struct dmask   { uint64x2_t v; };
struct fmask   { uint32x2_t v; };

inline vdouble set1_d(double x) { return {vdupq_n_f64(x)}; }
inline vfloat  set1_f(float x)  { return {vdup_n_f32(x)}; }
inline vint    set1_i(std::int32_t x) { return {vdup_n_s32(x)}; }

inline vdouble loadu_d(const double* p) { return {vld1q_f64(p)}; }
inline vfloat  loadu_f(const float* p)  { return {vld1_f32(p)}; }
inline vint    loadu_i(const std::int32_t* p) { return {vld1_s32(p)}; }
inline void storeu_d(double* p, vdouble a) { vst1q_f64(p, a.v); }
inline void storeu_f(float* p, vfloat a)   { vst1_f32(p, a.v); }
inline void storeu_i(std::int32_t* p, vint a) { vst1_s32(p, a.v); }

inline vdouble loadu_d_partial(const double* p, int n, double fill) {
  double out[2] = {fill, fill};
  for (int i = 0; i < n; ++i) out[i] = p[i];
  return {vld1q_f64(out)};
}
inline vfloat loadu_f_partial(const float* p, int n, float fill) {
  float out[2] = {fill, fill};
  for (int i = 0; i < n; ++i) out[i] = p[i];
  return {vld1_f32(out)};
}
inline vint loadu_i_partial(const std::int32_t* p, int n, std::int32_t fill) {
  std::int32_t out[2] = {fill, fill};
  for (int i = 0; i < n; ++i) out[i] = p[i];
  return {vld1_s32(out)};
}
inline void storeu_d_partial(double* p, vdouble a, int n) {
  double out[2];
  vst1q_f64(out, a.v);
  for (int i = 0; i < n; ++i) p[i] = out[i];
}
inline void storeu_f_partial(float* p, vfloat a, int n) {
  float out[2];
  vst1_f32(out, a.v);
  for (int i = 0; i < n; ++i) p[i] = out[i];
}
inline void storeu_i_partial(std::int32_t* p, vint a, int n) {
  std::int32_t out[2];
  vst1_s32(out, a.v);
  for (int i = 0; i < n; ++i) p[i] = out[i];
}

inline vdouble add_d(vdouble a, vdouble b) { return {vaddq_f64(a.v, b.v)}; }
inline vdouble sub_d(vdouble a, vdouble b) { return {vsubq_f64(a.v, b.v)}; }
inline vdouble mul_d(vdouble a, vdouble b) { return {vmulq_f64(a.v, b.v)}; }
inline vdouble div_d(vdouble a, vdouble b) { return {vdivq_f64(a.v, b.v)}; }
// FMIN/FMAX propagate NaN and order ±0.0 correctly; for the NaN-free,
// distinct-value inputs our kernels feed them they match MINPD/MAXPD.
inline vdouble min_d(vdouble a, vdouble b) { return {vminq_f64(a.v, b.v)}; }
inline vdouble max_d(vdouble a, vdouble b) { return {vmaxq_f64(a.v, b.v)}; }
inline vdouble sqrt_d(vdouble a) { return {vsqrtq_f64(a.v)}; }
inline vdouble neg_d(vdouble a) { return {vnegq_f64(a.v)}; }
inline vfloat add_f(vfloat a, vfloat b) { return {vadd_f32(a.v, b.v)}; }
inline vfloat sub_f(vfloat a, vfloat b) { return {vsub_f32(a.v, b.v)}; }
inline vfloat mul_f(vfloat a, vfloat b) { return {vmul_f32(a.v, b.v)}; }
inline vfloat min_f(vfloat a, vfloat b) { return {vmin_f32(a.v, b.v)}; }
inline vfloat max_f(vfloat a, vfloat b) { return {vmax_f32(a.v, b.v)}; }
inline vint add_i(vint a, vint b) { return {vadd_s32(a.v, b.v)}; }
inline vint sub_i(vint a, vint b) { return {vsub_s32(a.v, b.v)}; }

inline vdouble to_double(vfloat a) { return {vcvt_f64_f32(a.v)}; }
inline vfloat to_float(vdouble a) { return {vcvt_f32_f64(a.v)}; }

inline dmask cmp_gt_d(vdouble a, vdouble b) { return {vcgtq_f64(a.v, b.v)}; }
inline dmask cmp_lt_d(vdouble a, vdouble b) { return {vcltq_f64(a.v, b.v)}; }
inline dmask cmp_le_d(vdouble a, vdouble b) { return {vcleq_f64(a.v, b.v)}; }
inline dmask cmp_ge_d(vdouble a, vdouble b) { return {vcgeq_f64(a.v, b.v)}; }
inline dmask cmp_eq_d(vdouble a, vdouble b) { return {vceqq_f64(a.v, b.v)}; }
inline fmask cmp_gt_f(vfloat a, vfloat b) { return {vcgt_f32(a.v, b.v)}; }
inline fmask cmp_lt_f(vfloat a, vfloat b) { return {vclt_f32(a.v, b.v)}; }
inline fmask cmp_le_f(vfloat a, vfloat b) { return {vcle_f32(a.v, b.v)}; }
inline fmask cmp_ge_f(vfloat a, vfloat b) { return {vcge_f32(a.v, b.v)}; }
inline fmask cmp_eq_f(vfloat a, vfloat b) { return {vceq_f32(a.v, b.v)}; }
inline fmask isnan_f(vfloat a) { return {vmvn_u32(vceq_f32(a.v, a.v))}; }
inline fmask cmp_gt_i(vint a, vint b) { return {vcgt_s32(a.v, b.v)}; }
inline fmask cmp_eq_i(vint a, vint b) { return {vceq_s32(a.v, b.v)}; }

inline fmask m_and(fmask a, fmask b) { return {vand_u32(a.v, b.v)}; }
inline fmask m_or(fmask a, fmask b)  { return {vorr_u32(a.v, b.v)}; }
inline fmask m_not(fmask a) { return {vmvn_u32(a.v)}; }
inline dmask m_and(dmask a, dmask b) { return {vandq_u64(a.v, b.v)}; }
inline dmask m_or(dmask a, dmask b)  { return {vorrq_u64(a.v, b.v)}; }
inline dmask m_not(dmask a) {
  return {veorq_u64(a.v, vdupq_n_u64(~0ull))};
}
inline dmask widen(fmask m) {
  // Sign-extend -1/0 32-bit lanes to 64-bit all-ones/zero.
  return {vreinterpretq_u64_s64(vmovl_s32(vreinterpret_s32_u32(m.v)))};
}
inline fmask narrow(dmask m) { return {vmovn_u64(m.v)}; }
inline unsigned to_bits(fmask m) {
  return (vget_lane_u32(m.v, 0) ? 1u : 0u) | (vget_lane_u32(m.v, 1) ? 2u : 0u);
}
inline unsigned to_bits(dmask m) {
  return (vgetq_lane_u64(m.v, 0) ? 1u : 0u) |
         (vgetq_lane_u64(m.v, 1) ? 2u : 0u);
}
inline bool any(fmask m) { return to_bits(m) != 0; }
inline bool any(dmask m) { return to_bits(m) != 0; }

inline vdouble blend_d(dmask m, vdouble a, vdouble b) {
  return {vbslq_f64(m.v, a.v, b.v)};
}
inline vfloat blend_f(fmask m, vfloat a, vfloat b) {
  return {vbsl_f32(m.v, a.v, b.v)};
}
inline vint blend_i(fmask m, vint a, vint b) {
  return {vbsl_s32(m.v, a.v, b.v)};
}
inline vint mask_i(fmask m) { return {vreinterpret_s32_u32(m.v)}; }

inline vdouble gather_d(const double* base, vint idx, dmask m, double fill) {
  std::int32_t ix[2];
  vst1_s32(ix, idx.v);
  unsigned bits = to_bits(m);
  double out[2];
  out[0] = (bits & 1u) ? base[ix[0]] : fill;
  out[1] = (bits & 2u) ? base[ix[1]] : fill;
  return {vld1q_f64(out)};
}
inline vfloat gather_f(const float* base, vint idx, fmask m, float fill) {
  std::int32_t ix[2];
  vst1_s32(ix, idx.v);
  unsigned bits = to_bits(m);
  float out[2];
  out[0] = (bits & 1u) ? base[ix[0]] : fill;
  out[1] = (bits & 2u) ? base[ix[1]] : fill;
  return {vld1_f32(out)};
}
inline vint gather_i(const std::int32_t* base, vint idx, fmask m,
                     std::int32_t fill) {
  std::int32_t ix[2];
  vst1_s32(ix, idx.v);
  unsigned bits = to_bits(m);
  std::int32_t out[2];
  out[0] = (bits & 1u) ? base[ix[0]] : fill;
  out[1] = (bits & 2u) ? base[ix[1]] : fill;
  return {vld1_s32(out)};
}

inline double extract_d(vdouble a, int lane) {
  double out[2];
  vst1q_f64(out, a.v);
  return out[lane];
}
inline float extract_f(vfloat a, int lane) {
  float out[2];
  vst1_f32(out, a.v);
  return out[lane];
}
inline std::int32_t extract_i(vint a, int lane) {
  std::int32_t out[2];
  vst1_s32(out, a.v);
  return out[lane];
}

inline vdouble iota_d() {
  double out[2] = {0.0, 1.0};
  return {vld1q_f64(out)};
}

namespace detail {
inline vdouble pow2_parts(vdouble k) {
  const uint64x2_t bits = vreinterpretq_u64_f64(
      vaddq_f64(k.v, vdupq_n_f64(kTwo52PlusBias)));
  return {vreinterpretq_f64_u64(vshlq_n_u64(bits, 52))};
}
inline void exp_split_parts(vdouble a, vdouble& mant, vdouble& expo) {
  const uint64x2_t bits = vreinterpretq_u64_f64(a.v);
  mant.v = vreinterpretq_f64_u64(
      vorrq_u64(vandq_u64(bits, vdupq_n_u64(kFractionBits)),
                vdupq_n_u64(kOneBits)));
  const uint64x2_t field = vandq_u64(vshrq_n_u64(bits, 52), vdupq_n_u64(0x7FF));
  expo.v = vsubq_f64(
      vreinterpretq_f64_u64(vorrq_u64(field, vdupq_n_u64(kTwo52Bits))),
      vdupq_n_f64(kTwo52PlusBias));
}
}  // namespace detail

#else
// -------------------------------------------------------------- scalar --
inline constexpr int kWidth = 1;
inline constexpr const char* kBackendName = "scalar";

struct vdouble { double v; };
struct vfloat  { float v; };
struct vint    { std::int32_t v; };
struct dmask   { bool v; };
struct fmask   { bool v; };

inline vdouble set1_d(double x) { return {x}; }
inline vfloat  set1_f(float x)  { return {x}; }
inline vint    set1_i(std::int32_t x) { return {x}; }

inline vdouble loadu_d(const double* p) { return {*p}; }
inline vfloat  loadu_f(const float* p)  { return {*p}; }
inline vint    loadu_i(const std::int32_t* p) { return {*p}; }
inline void storeu_d(double* p, vdouble a) { *p = a.v; }
inline void storeu_f(float* p, vfloat a)   { *p = a.v; }
inline void storeu_i(std::int32_t* p, vint a) { *p = a.v; }

inline vdouble loadu_d_partial(const double* p, int n, double fill) {
  return {n > 0 ? *p : fill};
}
inline vfloat loadu_f_partial(const float* p, int n, float fill) {
  return {n > 0 ? *p : fill};
}
inline vint loadu_i_partial(const std::int32_t* p, int n, std::int32_t fill) {
  return {n > 0 ? *p : fill};
}
inline void storeu_d_partial(double* p, vdouble a, int n) {
  if (n > 0) *p = a.v;
}
inline void storeu_f_partial(float* p, vfloat a, int n) {
  if (n > 0) *p = a.v;
}
inline void storeu_i_partial(std::int32_t* p, vint a, int n) {
  if (n > 0) *p = a.v;
}

inline vdouble add_d(vdouble a, vdouble b) { return {a.v + b.v}; }
inline vdouble sub_d(vdouble a, vdouble b) { return {a.v - b.v}; }
inline vdouble mul_d(vdouble a, vdouble b) { return {a.v * b.v}; }
inline vdouble div_d(vdouble a, vdouble b) { return {a.v / b.v}; }
// The MINPD/MAXPD rule: b wins on equality or NaN.
inline vdouble min_d(vdouble a, vdouble b) { return {a.v < b.v ? a.v : b.v}; }
inline vdouble max_d(vdouble a, vdouble b) { return {a.v > b.v ? a.v : b.v}; }
inline vdouble sqrt_d(vdouble a) { return {std::sqrt(a.v)}; }
inline vdouble neg_d(vdouble a) { return {-a.v}; }
inline vfloat add_f(vfloat a, vfloat b) { return {a.v + b.v}; }
inline vfloat sub_f(vfloat a, vfloat b) { return {a.v - b.v}; }
inline vfloat mul_f(vfloat a, vfloat b) { return {a.v * b.v}; }
inline vfloat min_f(vfloat a, vfloat b) { return {a.v < b.v ? a.v : b.v}; }
inline vfloat max_f(vfloat a, vfloat b) { return {a.v > b.v ? a.v : b.v}; }
inline vint add_i(vint a, vint b) { return {a.v + b.v}; }
inline vint sub_i(vint a, vint b) { return {a.v - b.v}; }

inline vdouble to_double(vfloat a) { return {static_cast<double>(a.v)}; }
inline vfloat to_float(vdouble a) { return {static_cast<float>(a.v)}; }

inline dmask cmp_gt_d(vdouble a, vdouble b) { return {a.v > b.v}; }
inline dmask cmp_lt_d(vdouble a, vdouble b) { return {a.v < b.v}; }
inline dmask cmp_le_d(vdouble a, vdouble b) { return {a.v <= b.v}; }
inline dmask cmp_ge_d(vdouble a, vdouble b) { return {a.v >= b.v}; }
inline dmask cmp_eq_d(vdouble a, vdouble b) { return {a.v == b.v}; }
inline fmask cmp_gt_f(vfloat a, vfloat b) { return {a.v > b.v}; }
inline fmask cmp_lt_f(vfloat a, vfloat b) { return {a.v < b.v}; }
inline fmask cmp_le_f(vfloat a, vfloat b) { return {a.v <= b.v}; }
inline fmask cmp_ge_f(vfloat a, vfloat b) { return {a.v >= b.v}; }
inline fmask cmp_eq_f(vfloat a, vfloat b) { return {a.v == b.v}; }
inline fmask isnan_f(vfloat a) { return {a.v != a.v}; }
inline fmask cmp_gt_i(vint a, vint b) { return {a.v > b.v}; }
inline fmask cmp_eq_i(vint a, vint b) { return {a.v == b.v}; }

inline fmask m_and(fmask a, fmask b) { return {a.v && b.v}; }
inline fmask m_or(fmask a, fmask b)  { return {a.v || b.v}; }
inline fmask m_not(fmask a) { return {!a.v}; }
inline dmask m_and(dmask a, dmask b) { return {a.v && b.v}; }
inline dmask m_or(dmask a, dmask b)  { return {a.v || b.v}; }
inline dmask m_not(dmask a) { return {!a.v}; }
inline dmask widen(fmask m) { return {m.v}; }
inline fmask narrow(dmask m) { return {m.v}; }
inline unsigned to_bits(fmask m) { return m.v ? 1u : 0u; }
inline unsigned to_bits(dmask m) { return m.v ? 1u : 0u; }
inline bool any(fmask m) { return m.v; }
inline bool any(dmask m) { return m.v; }

inline vdouble blend_d(dmask m, vdouble a, vdouble b) { return m.v ? a : b; }
inline vfloat blend_f(fmask m, vfloat a, vfloat b) { return m.v ? a : b; }
inline vint blend_i(fmask m, vint a, vint b) { return m.v ? a : b; }
inline vint mask_i(fmask m) { return {m.v ? std::int32_t{-1} : 0}; }

inline vdouble gather_d(const double* base, vint idx, dmask m, double fill) {
  return {m.v ? base[idx.v] : fill};
}
inline vfloat gather_f(const float* base, vint idx, fmask m, float fill) {
  return {m.v ? base[idx.v] : fill};
}
inline vint gather_i(const std::int32_t* base, vint idx, fmask m,
                     std::int32_t fill) {
  return {m.v ? base[idx.v] : fill};
}

inline double extract_d(vdouble a, int) { return a.v; }
inline float extract_f(vfloat a, int) { return a.v; }
inline std::int32_t extract_i(vint a, int) { return a.v; }

inline vdouble iota_d() { return {0.0}; }

namespace detail {
inline vdouble pow2_parts(vdouble k) {
  const double biased = k.v + kTwo52PlusBias;
  std::uint64_t bits;
  std::memcpy(&bits, &biased, sizeof bits);
  bits <<= 52;
  vdouble out;
  std::memcpy(&out.v, &bits, sizeof bits);
  return out;
}
inline void exp_split_parts(vdouble a, vdouble& mant, vdouble& expo) {
  std::uint64_t bits;
  std::memcpy(&bits, &a.v, sizeof bits);
  const std::uint64_t m = (bits & kFractionBits) | kOneBits;
  std::memcpy(&mant.v, &m, sizeof m);
  const std::uint64_t big = ((bits >> 52) & 0x7FF) | kTwo52Bits;
  std::memcpy(&expo.v, &big, sizeof big);
  expo.v -= kTwo52PlusBias;
}
}  // namespace detail

#endif

/// split_exp_d(a): the exact binary split of each lane, built from bit
/// operations alone (no rounding anywhere, so every backend agrees):
///  - mant: a's 52 fraction bits under a biased exponent of 0, a value in
///    [1, 2); for a positive normal a, a == mant * 2^expo exactly;
///  - expo: the 11-bit biased exponent field minus 1023, as a double (so
///    -1023 for ±0 and subnormals, 1024 for ±inf and NaN);
///  - pos_normal: all-ones where a is positive, normal and finite — the
///    lanes on which the split is the textbook frexp.
/// The sign bit is ignored by mant and expo.
struct ExpSplit {
  vdouble mant;
  vdouble expo;
  dmask pos_normal;
};
inline ExpSplit split_exp_d(vdouble a) {
  ExpSplit out;
  detail::exp_split_parts(a, out.mant, out.expo);
  out.pos_normal =
      m_and(cmp_ge_d(a, set1_d(std::numeric_limits<double>::min())),
            cmp_le_d(a, set1_d(std::numeric_limits<double>::max())));
  return out;
}

/// pow2_d(k): 2^k exactly, for lanes holding an integer-valued k in
/// [-1022, 1023] — the inverse of split_exp_d's expo. k + (2^52 + 1023) is
/// exact there and leaves 1023 + k in the low mantissa bits; shifting the
/// lane left by 52 moves that into the exponent field and clears the
/// fraction. Other lanes get an unspecified value.
inline vdouble pow2_d(vdouble k) { return detail::pow2_parts(k); }

}  // namespace magus::util::simd
