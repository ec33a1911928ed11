#include "src/common/rng.h"

#include "src/common/error.h"

namespace bpvec {

namespace {
std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the four lanes via splitmix64 as recommended by the xoshiro authors.
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

namespace {
// uniform's draw over a power-of-two span (2^0 … 2^63) without either
// 64-bit division: its limit UINT64_MAX - UINT64_MAX % span is then
// 2^64 - span, and r % span is r & (span - 1). Same draws rejected, same
// value, so the stream is uniform's.
std::uint64_t offset_pow2(Rng& rng, std::uint64_t span) {
  const std::uint64_t limit = 0 - span;
  std::uint64_t r;
  do {
    r = rng.next_u64();
  } while (r >= limit);
  return r & (span - 1);
}

// signed_value's draw: uniform(-span/2, span/2 - 1) is lo + offset, taken
// in uint64.
std::int32_t signed_pow2(Rng& rng, std::uint64_t span) {
  return static_cast<std::int32_t>(
      static_cast<std::int64_t>(offset_pow2(rng, span) - (span >> 1)));
}
}  // namespace

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  BPVEC_CHECK(lo <= hi);
  // Span and offset in uint64: hi - lo overflows int64 once the span
  // passes INT64_MAX, and lo + offset can pass INT64_MAX on the way back.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  std::uint64_t offset = 0;
  if ((span & (span - 1)) == 0) {
    offset = offset_pow2(*this, span);
  } else {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
    std::uint64_t r;
    do {
      r = next_u64();
    } while (r >= limit);
    offset = r % span;
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
}

double Rng::uniform01() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int32_t Rng::signed_value(int bits) {
  BPVEC_CHECK(bits >= 1 && bits <= 32);
  return signed_pow2(*this, std::uint64_t{1} << bits);
}

std::uint32_t Rng::unsigned_value(int bits) {
  BPVEC_CHECK(bits >= 1 && bits <= 32);
  // uniform(0, 2^bits - 1).
  return static_cast<std::uint32_t>(
      offset_pow2(*this, std::uint64_t{1} << bits));
}

Rng Rng::fork(std::uint64_t stream) const {
  // Mix the parent's full 256-bit state with the stream index through
  // splitmix64; child lanes are decorrelated from the parent and from
  // sibling streams (same construction as seeding, applied per lane).
  Rng child(0);
  std::uint64_t sm = stream ^ 0xA0761D6478BD642Full;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t mixed = s_[i] ^ splitmix64(sm);
    child.s_[i] = splitmix64(mixed);
  }
  return child;
}

std::vector<std::int32_t> Rng::signed_vector(std::size_t n, int bits) {
  BPVEC_CHECK(bits >= 1 && bits <= 32);
  // n draws of signed_value(bits), its check hoisted out of the loop.
  const std::uint64_t span = std::uint64_t{1} << bits;
  std::vector<std::int32_t> v(n);
  for (auto& x : v) x = signed_pow2(*this, span);
  return v;
}

}  // namespace bpvec
