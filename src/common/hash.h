// Hash functions used for ring placement, YCSB key scrambling and on-disk
// record checksums.
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace chainreaction {

// FNV-1a 64-bit. Stable across platforms; used to place keys and virtual
// nodes on the consistent-hashing ring.
inline uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// 64-bit integer finalizer (Murmur3 fmix64). Used by the scrambled-zipfian
// generator to spread hot keys over the key space, as YCSB does.
inline uint64_t Mix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

// Record checksum for the WAL and the value log. FNV-1a above is
// multiply-latency bound at one byte per step; this reads eight bytes per
// step into four independent lanes (xxHash64-style rounds), so a 1 KiB
// record costs a fraction of the FNV pass.
//
// Every step is a bijection of its state for a fixed input word and of the
// input word for a fixed state, and the lanes are folded by bijective
// steps. So any change confined to one aligned 8-byte word of the input —
// every single-bit flip among them — always changes the result. Words are
// loaded in host byte order (little-endian hosts only, like ByteWriter).
// Not a cryptographic hash.
inline uint64_t Checksum64(std::string_view data) {
  constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  const auto round = [](uint64_t acc, uint64_t word) {
    return std::rotl(acc + word * kP2, 31) * kP1;
  };
  const auto load = [](const char* p) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    return word;
  };
  const char* p = data.data();
  size_t n = data.size();
  uint64_t h = 0x27D4EB2F165667C5ULL + data.size();
  if (n >= 32) {
    uint64_t a = kP1 + kP2, b = kP2, c = 0, d = 0 - kP1;
    do {
      a = round(a, load(p));
      b = round(b, load(p + 8));
      c = round(c, load(p + 16));
      d = round(d, load(p + 24));
      p += 32;
      n -= 32;
    } while (n >= 32);
    h = Mix64(Mix64(Mix64(Mix64(h ^ a) ^ b) ^ c) ^ d);
  }
  for (; n >= 8; p += 8, n -= 8) {
    h = round(h, load(p));
  }
  if (n > 0) {
    uint64_t word = 0;
    std::memcpy(&word, p, n);
    h = round(h, word);
  }
  return Mix64(h);
}

}  // namespace chainreaction

#endif  // SRC_COMMON_HASH_H_
