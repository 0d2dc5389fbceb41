// Dynamic bit vector with fast popcount / Hamming distance.
//
// BitVec is the storage format for LSH signatures and for the bit-level
// contents of CMA rows (a 256-column CMA row is a 256-bit BitVec). The word
// layout is little-endian within a 64-bit word: bit i lives in word i/64 at
// position i%64.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace imars::util {

/// Set bits in a word. Portable SWAR count: the default x86-64 target has no
/// popcnt instruction, and std::popcount there is an out-of-line libgcc
/// table walk.
constexpr int popcount64(std::uint64_t x) noexcept {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}

/// Fixed-size-after-construction vector of bits.
class BitVec {
 public:
  BitVec() = default;

  /// Creates a vector of `nbits` bits, all zero.
  explicit BitVec(std::size_t nbits);

  /// Parses a string of '0'/'1' characters (index 0 = leftmost character).
  static BitVec from_string(const std::string& bits);

  /// Builds a vector from the low `nbits` of `words` (word 0 = bits 0..63).
  static BitVec from_words(std::span<const std::uint64_t> words,
                           std::size_t nbits);

  std::size_t size() const noexcept { return nbits_; }
  bool empty() const noexcept { return nbits_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  /// Sets all bits to `value`.
  void fill(bool value);

  /// Number of set bits.
  std::size_t popcount() const noexcept;

  /// Hamming distance to another vector of the same size.
  std::size_t hamming(const BitVec& other) const;

  /// Bitwise operators (sizes must match).
  BitVec operator^(const BitVec& other) const;
  BitVec operator&(const BitVec& other) const;
  BitVec operator|(const BitVec& other) const;
  BitVec operator~() const;

  bool operator==(const BitVec& other) const noexcept = default;

  /// Copies bits [src_begin, src_begin+len) of `src` into this vector
  /// starting at dst_begin.
  void copy_from(const BitVec& src, std::size_t src_begin, std::size_t len,
                 std::size_t dst_begin);

  /// Returns bits [begin, begin+len) as a new vector.
  BitVec slice(std::size_t begin, std::size_t len) const;

  /// Interprets bits [begin, begin+8) as an unsigned byte (bit begin = LSB).
  std::uint8_t byte_at(std::size_t begin) const;

  /// Writes `value` into bits [begin, begin+8) (bit begin = LSB).
  void set_byte(std::size_t begin, std::uint8_t value);

  /// '0'/'1' string, index 0 first.
  std::string to_string() const;

  /// Raw word storage (low word first). Trailing bits beyond size() are zero.
  std::span<const std::uint64_t> words() const noexcept { return words_; }

 private:
  void check_index(std::size_t i) const;
  void clear_tail() noexcept;
  /// Unchecked: bits [pos, pos+n) as the low bits of a word, n in [1, 64].
  std::uint64_t bits_at(std::size_t pos, std::size_t n) const noexcept;
  /// Unchecked: writes the low `n` bits of `value` into [pos, pos+n).
  void put_bits(std::size_t pos, std::size_t n, std::uint64_t value) noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t nbits_ = 0;
};

}  // namespace imars::util
