// Checksums shared by every durable on-disk format.
//
// fnv1a: byte-serial FNV-1a. Originally private to the path-loss database
// (its per-entry checksums); hoisted so the execution journal's per-record
// checksums use the exact same scheme. Chainable: pass the previous hash
// to checksum a logical record spread over several buffers. It runs at
// ~0.7 GB/s, which is fine for small records and slow for bulk payloads.
//
// hash64: the XXH64 algorithm (xxHash's 64-bit hash): four independent
// 64-bit multiply-rotate lanes over 32-byte stripes, read as little-endian
// words, then a byte-level tail. It runs at memory speed, so it guards the
// multi-MiB coverage-index section of a path-loss file. Its value is part
// of that file format: known-answer vectors in the tests pin it. Chainable
// through `seed`.
#pragma once

#include <cstddef>
#include <cstdint>

namespace magus::util {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001B3ULL;

/// FNV-1a over a byte range, chainable via `hash`.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t bytes,
                                  std::uint64_t hash = kFnv1aOffsetBasis);

/// XXH64 over a byte range; chain several buffers by passing the previous
/// result as `seed`. Any alignment of `data` is fine.
[[nodiscard]] std::uint64_t hash64(const void* data, std::size_t bytes,
                                   std::uint64_t seed = 0);

}  // namespace magus::util
