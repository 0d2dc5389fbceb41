#include "util/bitvec.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace imars::util {

namespace {
constexpr std::size_t kWordBits = 64;
constexpr std::size_t word_count(std::size_t nbits) {
  return (nbits + kWordBits - 1) / kWordBits;
}
/// The low `n` bits set, for n in [1, 64].
constexpr std::uint64_t low_mask(std::size_t n) {
  return n >= kWordBits ? ~0ULL : (1ULL << n) - 1;
}
}  // namespace

BitVec::BitVec(std::size_t nbits) : words_(word_count(nbits), 0), nbits_(nbits) {}

BitVec BitVec::from_string(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    IMARS_REQUIRE(bits[i] == '0' || bits[i] == '1', "bit string must be 0/1");
    if (bits[i] == '1') v.set(i, true);
  }
  return v;
}

BitVec BitVec::from_words(std::span<const std::uint64_t> words,
                          std::size_t nbits) {
  IMARS_REQUIRE(words.size() >= word_count(nbits),
                "not enough words for requested bit count");
  BitVec v(nbits);
  for (std::size_t w = 0; w < v.words_.size(); ++w) v.words_[w] = words[w];
  v.clear_tail();
  return v;
}

void BitVec::check_index(std::size_t i) const {
  IMARS_REQUIRE(i < nbits_, "bit index " + std::to_string(i) +
                                " out of range (size " +
                                std::to_string(nbits_) + ")");
}

void BitVec::clear_tail() noexcept {
  const std::size_t tail = nbits_ % kWordBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (~0ULL >> (kWordBits - tail));
  }
}

bool BitVec::get(std::size_t i) const {
  check_index(i);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void BitVec::set(std::size_t i, bool value) {
  check_index(i);
  const std::uint64_t mask = 1ULL << (i % kWordBits);
  if (value)
    words_[i / kWordBits] |= mask;
  else
    words_[i / kWordBits] &= ~mask;
}

void BitVec::flip(std::size_t i) {
  check_index(i);
  words_[i / kWordBits] ^= 1ULL << (i % kWordBits);
}

void BitVec::fill(bool value) {
  for (auto& w : words_) w = value ? ~0ULL : 0ULL;
  clear_tail();
}

std::size_t BitVec::popcount() const noexcept {
  std::size_t total = 0;
  for (auto w : words_) total += static_cast<std::size_t>(popcount64(w));
  return total;
}

std::size_t BitVec::hamming(const BitVec& other) const {
  IMARS_REQUIRE(nbits_ == other.nbits_, "hamming: size mismatch");
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_.size(); ++w) {
    total += static_cast<std::size_t>(popcount64(words_[w] ^ other.words_[w]));
  }
  return total;
}

BitVec BitVec::operator^(const BitVec& other) const {
  IMARS_REQUIRE(nbits_ == other.nbits_, "xor: size mismatch");
  BitVec out(nbits_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    out.words_[w] = words_[w] ^ other.words_[w];
  return out;
}

BitVec BitVec::operator&(const BitVec& other) const {
  IMARS_REQUIRE(nbits_ == other.nbits_, "and: size mismatch");
  BitVec out(nbits_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    out.words_[w] = words_[w] & other.words_[w];
  return out;
}

BitVec BitVec::operator|(const BitVec& other) const {
  IMARS_REQUIRE(nbits_ == other.nbits_, "or: size mismatch");
  BitVec out(nbits_);
  for (std::size_t w = 0; w < words_.size(); ++w)
    out.words_[w] = words_[w] | other.words_[w];
  return out;
}

BitVec BitVec::operator~() const {
  BitVec out(nbits_);
  for (std::size_t w = 0; w < words_.size(); ++w) out.words_[w] = ~words_[w];
  out.clear_tail();
  return out;
}

void BitVec::copy_from(const BitVec& src, std::size_t src_begin,
                       std::size_t len, std::size_t dst_begin) {
  IMARS_REQUIRE(src_begin + len <= src.nbits_, "copy_from: source range");
  IMARS_REQUIRE(dst_begin + len <= nbits_, "copy_from: destination range");
  if (&src == this) {
    // Overlapping self-copy: read every source bit before writing any.
    const BitVec copy = src;
    copy_from(copy, src_begin, len, dst_begin);
    return;
  }
  for (std::size_t done = 0; done < len; done += kWordBits) {
    const std::size_t n = std::min(kWordBits, len - done);
    put_bits(dst_begin + done, n, src.bits_at(src_begin + done, n));
  }
}

BitVec BitVec::slice(std::size_t begin, std::size_t len) const {
  IMARS_REQUIRE(begin + len <= nbits_, "slice: range out of bounds");
  BitVec out(len);
  out.copy_from(*this, begin, len, 0);
  return out;
}

std::uint8_t BitVec::byte_at(std::size_t begin) const {
  IMARS_REQUIRE(begin + 8 <= nbits_, "byte_at: range out of bounds");
  return static_cast<std::uint8_t>(bits_at(begin, 8));
}

void BitVec::set_byte(std::size_t begin, std::uint8_t value) {
  IMARS_REQUIRE(begin + 8 <= nbits_, "set_byte: range out of bounds");
  put_bits(begin, 8, value);
}

std::uint64_t BitVec::bits_at(std::size_t pos, std::size_t n) const noexcept {
  const std::size_t w = pos / kWordBits;
  const std::size_t s = pos % kWordBits;
  std::uint64_t v = words_[w] >> s;
  if (s + n > kWordBits) v |= words_[w + 1] << (kWordBits - s);
  return v & low_mask(n);
}

void BitVec::put_bits(std::size_t pos, std::size_t n,
                      std::uint64_t value) noexcept {
  const std::size_t w = pos / kWordBits;
  const std::size_t s = pos % kWordBits;
  const std::uint64_t mask = low_mask(n);
  value &= mask;
  words_[w] = (words_[w] & ~(mask << s)) | (value << s);
  if (s + n > kWordBits) {
    const std::size_t spill = kWordBits - s;  // bits already placed in word w
    words_[w + 1] = (words_[w + 1] & ~(mask >> spill)) | (value >> spill);
  }
}

std::string BitVec::to_string() const {
  std::string s(nbits_, '0');
  for (std::size_t i = 0; i < nbits_; ++i) {
    if (get(i)) s[i] = '1';
  }
  return s;
}

}  // namespace imars::util
