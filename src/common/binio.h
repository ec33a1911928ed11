// Packed little-endian binary codec backing the disk cache's shard
// format (src/engine/disk_cache.h).
//
// The JSON entry format it replaces round-tripped doubles through %.17g
// text — bit-exact, but a full parse per load. This codec writes
// fixed-width little-endian integers and raw IEEE-754 bit patterns, so a
// load is a bounds-checked memcpy walk: no number formatting, no parser,
// and the same bit-exactness guarantee by construction (f64 writes the
// 64 payload bits verbatim; every double — inf, nan payloads, -0.0,
// denormals — survives a round trip unchanged).
//
// Encoding is byte-wise little-endian regardless of host endianness, so
// shard files are portable across machines sharing a cache directory.
// Strings are u32-length-prefixed raw bytes (embedded NULs fine).
//
// Reader is strict: every read is bounds-checked and a truncated or
// overrun buffer throws bpvec::Error — the disk cache converts that into
// a rejected (re-priced) entry, never a crash or a wrong number.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/error.h"

namespace bpvec::common::binio {

/// Append-only encoder over a growable byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    buf_.append(b, 4);
  }

  void u64(std::uint64_t v) {
    char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    buf_.append(b, 8);
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Raw IEEE-754 bit pattern — the round trip is the identity for every
  /// double, including non-finite values and nan payloads.
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  void str(const std::string& s) {
    BPVEC_CHECK_MSG(s.size() <= 0xFFFFFFFFull, "binio: string too long");
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }

  const std::string& bytes() const { return buf_; }
  std::size_t size() const { return buf_.size(); }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder over a borrowed byte range (the caller keeps
/// the buffer alive). Throws bpvec::Error on any read past the end.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(std::string_view bytes)
      : Reader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(data_ + pos_, n);
    pos_ += n;
    return s;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw Error("binio: truncated buffer (need " + std::to_string(n) +
                  " bytes, have " + std::to_string(size_ - pos_) + ")");
    }
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Independent chains in checksum(); a stripe is one 8-byte word per lane.
inline constexpr std::size_t kChecksumLanes = 4;

/// 64-bit content checksum over a byte range (murmur-style mix, same
/// family as common::ConfigHash). Detects the torn/overwritten records a
/// length-prefixed scan alone cannot.
///
/// Each 32-byte stripe feeds word l to lane l; every lane is its own
/// serial mix chain from its own seed, with the length folded into each
/// seed. The four chains are independent, so their multiplies overlap
/// instead of waiting on one chain's latency. The lanes fold in order
/// through the same mix, then the word and byte tail past the last whole
/// stripe continues that one chain. Every step is a bijection of its
/// lane, so a change confined to one word always changes the sum.
std::uint64_t checksum(const char* data, std::size_t size);

inline std::uint64_t checksum(std::string_view bytes) {
  return checksum(bytes.data(), bytes.size());
}

}  // namespace bpvec::common::binio
