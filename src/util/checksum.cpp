#include "util/checksum.h"

#include <bit>
#include <cstring>

namespace magus::util {

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

namespace {

constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;

[[nodiscard]] std::uint64_t read64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

[[nodiscard]] std::uint32_t read32(const unsigned char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

[[nodiscard]] std::uint64_t round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

[[nodiscard]] std::uint64_t merge(std::uint64_t acc, std::uint64_t lane) {
  return (acc ^ round(0, lane)) * kP1 + kP4;
}

}  // namespace

std::uint64_t hash64(const void* data, std::size_t bytes, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + bytes;
  std::uint64_t h = 0;
  if (bytes >= 32) {
    // Four independent lanes: each multiply chain overlaps the others'.
    std::uint64_t v1 = seed + kP1 + kP2;
    std::uint64_t v2 = seed + kP2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kP1;
    const unsigned char* const stripes_end = end - 31;
    do {
      v1 = round(v1, read64(p));
      v2 = round(v2, read64(p + 8));
      v3 = round(v3, read64(p + 16));
      v4 = round(v4, read64(p + 24));
      p += 32;
    } while (p < stripes_end);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = merge(h, v1);
    h = merge(h, v2);
    h = merge(h, v3);
    h = merge(h, v4);
  } else {
    h = seed + kP5;
  }
  h += static_cast<std::uint64_t>(bytes);

  for (; end - p >= 8; p += 8) {
    h ^= round(0, read64(p));
    h = std::rotl(h, 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h ^= static_cast<std::uint64_t>(read32(p)) * kP1;
    h = std::rotl(h, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kP5;
    h = std::rotl(h, 11) * kP1;
  }

  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

}  // namespace magus::util
