// Fixed-size bit-set bloom filter used for transaction read/write
// signatures (RTC dependency detection, InvalSTM/RInval invalidation,
// RingSW commit records).  The default 1024-bit size matches RSTM's
// configuration cited by the paper (§5.1.1).
#pragma once

#include <array>
#include <cstdint>

#include "common/hash.h"

namespace otb {

template <std::size_t Bits = 1024>
class BloomFilter {
  static_assert(Bits % 64 == 0, "filter size must be a multiple of 64 bits");

 public:
  static constexpr std::size_t kWords = Bits / 64;

  void clear() noexcept { words_.fill(0); }

  /// Insert an address.  Two probes derived from one 64-bit hash keep the
  /// false-positive rate low without extra hashing cost.
  void add(const void* addr) noexcept {
    const std::uint64_t h = hash_addr(addr);
    set_bit(h);
    set_bit(h >> 32);
  }

  /// Membership test (may report false positives, never false negatives).
  bool may_contain(const void* addr) const noexcept {
    const std::uint64_t h = hash_addr(addr);
    return test_bit(h) && test_bit(h >> 32);
  }

  /// True when the two filters share at least one set bit — the conservative
  /// "transactions may conflict" test.
  bool intersects(const BloomFilter& other) const noexcept {
    for (std::size_t i = 0; i < kWords; ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  bool empty() const noexcept {
    for (const std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  void union_with(const BloomFilter& other) noexcept {
    for (std::size_t i = 0; i < kWords; ++i) words_[i] |= other.words_[i];
  }

  /// Raw 64-bit word `i` (for publishing a copy into shared atomic storage).
  std::uint64_t word(std::size_t i) const noexcept { return words_[i]; }

 private:
  void set_bit(std::uint64_t h) noexcept {
    const std::uint64_t bit = h % Bits;
    words_[bit / 64] |= (1ULL << (bit % 64));
  }
  bool test_bit(std::uint64_t h) const noexcept {
    const std::uint64_t bit = h % Bits;
    return (words_[bit / 64] >> (bit % 64)) & 1ULL;
  }

  std::array<std::uint64_t, kWords> words_{};
};

using TxFilter = BloomFilter<1024>;

}  // namespace otb
