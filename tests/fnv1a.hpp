// 64-bit FNV-1a for the golden-digest tables (match_digests.inc,
// cluster_digests.inc, thermal_digests.inc): words hash as their 8 little-endian bytes and
// doubles by bit pattern, so any ULP change moves the digest.
#pragma once

#include <bit>
#include <cstdint>

namespace iscope {

class Fnv1a {
 public:
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace iscope
