#include "src/common/binio.h"

namespace bpvec::common::binio {
namespace {

constexpr std::uint64_t kPrime = 0x100000001B3ull;
// One seed per lane; lane 0's is the single-chain seed ("BPV3CKSU").
constexpr std::uint64_t kLaneSeeds[kChecksumLanes] = {
    0x42505633434b5355ull, 0x9E3779B97F4A7C15ull, 0xC2B2AE3D27D4EB4Full,
    0x165667B19E3779F9ull};

std::uint64_t mix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ull;
  h ^= h >> 33;
  return h;
}

std::uint64_t word_at(const char* p) {
  std::uint64_t word;
  std::memcpy(&word, p, 8);
  return word;
}

}  // namespace

std::uint64_t checksum(const char* data, std::size_t size) {
  constexpr std::size_t kStripe = 8 * kChecksumLanes;
  std::uint64_t lanes[kChecksumLanes];
  for (std::size_t l = 0; l < kChecksumLanes; ++l) {
    lanes[l] = kLaneSeeds[l] ^ (kPrime * size);
  }
  std::size_t i = 0;
  for (; i + kStripe <= size; i += kStripe) {
    for (std::size_t l = 0; l < kChecksumLanes; ++l) {
      lanes[l] = mix(lanes[l] ^ word_at(data + i + 8 * l)) * kPrime;
    }
  }
  std::uint64_t h = lanes[0];
  for (std::size_t l = 1; l < kChecksumLanes; ++l) {
    h = mix(h ^ lanes[l]) * kPrime;
  }
  for (; i + 8 <= size; i += 8) h = mix(h ^ word_at(data + i)) * kPrime;
  std::uint64_t tail = 0;
  for (std::size_t j = 0; i + j < size; ++j) {
    tail |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i + j]))
            << (8 * j);
  }
  if (i < size) h = mix(h ^ tail) * kPrime;
  return mix(h);
}

}  // namespace bpvec::common::binio
