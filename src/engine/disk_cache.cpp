#include "src/engine/disk_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string_view>
#include <system_error>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "src/common/error.h"

namespace bpvec::engine {

namespace fs = std::filesystem;
using common::json::Value;
namespace binio = common::binio;

namespace {

// --------------------------------------------------------------------------
// Binary codec — the record payload after its key.

std::uint8_t kind_to_u8(dnn::LayerKind k) {
  switch (k) {
    case dnn::LayerKind::kConv:
      return 0;
    case dnn::LayerKind::kFullyConnected:
      return 1;
    case dnn::LayerKind::kPool:
      return 2;
    case dnn::LayerKind::kRecurrent:
      return 3;
  }
  throw Error("unknown layer kind enum value");
}

dnn::LayerKind kind_from_u8(std::uint8_t v) {
  switch (v) {
    case 0:
      return dnn::LayerKind::kConv;
    case 1:
      return dnn::LayerKind::kFullyConnected;
    case 2:
      return dnn::LayerKind::kPool;
    case 3:
      return dnn::LayerKind::kRecurrent;
  }
  throw Error("unknown layer kind tag: " + std::to_string(v));
}

void energy_encode(binio::Writer& w, const sim::EnergyBreakdown& e) {
  w.f64(e.compute_pj);
  w.f64(e.sram_pj);
  w.f64(e.dram_pj);
  w.f64(e.static_pj);
}

sim::EnergyBreakdown energy_decode(binio::Reader& r) {
  sim::EnergyBreakdown e;
  e.compute_pj = r.f64();
  e.sram_pj = r.f64();
  e.dram_pj = r.f64();
  e.static_pj = r.f64();
  return e;
}

void layer_encode(binio::Writer& w, const sim::LayerResult& l) {
  w.str(l.name);
  w.u8(kind_to_u8(l.kind));
  w.i64(l.x_bits);
  w.i64(l.w_bits);
  w.i64(l.macs);
  w.i64(l.compute_cycles);
  w.i64(l.memory_cycles);
  w.i64(l.total_cycles);
  w.f64(l.utilization);
  w.i64(l.dram_bytes);
  w.i64(l.sram_bytes);
  energy_encode(w, l.energy);
  w.u8(l.memory_bound ? 1 : 0);
  w.f64(l.runtime_s);
  w.f64(l.measured_wall_s);
  w.i64(l.measured_macs);
}

sim::LayerResult layer_decode(binio::Reader& r) {
  sim::LayerResult l;
  l.name = r.str();
  l.kind = kind_from_u8(r.u8());
  l.x_bits = static_cast<int>(r.i64());
  l.w_bits = static_cast<int>(r.i64());
  l.macs = r.i64();
  l.compute_cycles = r.i64();
  l.memory_cycles = r.i64();
  l.total_cycles = r.i64();
  l.utilization = r.f64();
  l.dram_bytes = r.i64();
  l.sram_bytes = r.i64();
  l.energy = energy_decode(r);
  l.memory_bound = r.u8() != 0;
  l.runtime_s = r.f64();
  l.measured_wall_s = r.f64();
  l.measured_macs = r.i64();
  return l;
}

/// The fewest bytes layer_encode writes: a layer with an empty name. A
/// layer count that could not fit in the bytes left is corrupt.
std::size_t min_layer_bytes() {
  static const std::size_t bytes = [] {
    binio::Writer w;
    layer_encode(w, sim::LayerResult{});
    return w.size();
  }();
  return bytes;
}

// --------------------------------------------------------------------------
// Shard file layout.

constexpr char kShardMagic[4] = {'B', 'P', 'C', '3'};
constexpr std::size_t kShardHeaderSize = 8;  // magic + u32 version
// Per record: u32 payload_len before the payload, u64 checksum after.
constexpr std::size_t kRecordOverhead = 12;
// Scans read, and seals write, through buffers of this size, so opening
// or merging a cache never holds a whole shard in memory.
constexpr std::size_t kIoChunk = 64 * 1024;

std::string shard_file_name(std::uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "shard-%04llu.bpc",
                static_cast<unsigned long long>(number));
  return buf;
}

std::string shard_header() {
  binio::Writer w;
  for (char c : kShardMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(static_cast<std::uint32_t>(DiskCache::kFormatVersion));
  return w.take();
}

/// `header` points at kShardHeaderSize bytes.
bool shard_header_ok(const char* header) {
  if (std::memcmp(header, kShardMagic, sizeof kShardMagic) != 0) return false;
  binio::Reader r(header + 4, 4);
  return r.u32() == static_cast<std::uint32_t>(DiskCache::kFormatVersion);
}

/// True when `name` looks like shard-<digits>.bpc; fills `number`.
bool parse_shard_name(const std::string& name, std::uint64_t& number) {
  constexpr const char* kPrefix = "shard-";
  constexpr const char* kSuffix = ".bpc";
  if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix)) return false;
  if (name.rfind(kPrefix, 0) != 0) return false;
  if (name.size() < std::strlen(kSuffix) ||
      name.compare(name.size() - std::strlen(kSuffix), std::strlen(kSuffix),
                   kSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(
      std::strlen(kPrefix),
      name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
  if (digits.empty()) return false;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  number = std::strtoull(digits.c_str(), nullptr, 10);
  return true;
}

/// Shard files in `dir`, sorted by shard number (scan order — later
/// shards win duplicate keys). Throws bpvec::Error naming `dir` when it
/// cannot be listed.
std::vector<std::pair<std::uint64_t, std::string>> list_shards(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> shards;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw Error("cannot read cache directory " + dir + ": " + ec.message());
  }
  for (const auto& entry : it) {
    std::uint64_t number = 0;
    if (entry.is_regular_file(ec) &&
        parse_shard_name(entry.path().filename().string(), number)) {
      shards.emplace_back(number, entry.path().string());
    }
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

/// One serialized record (length prefix + payload + checksum).
std::string encode_record(std::uint64_t key, const sim::RunResult& result) {
  binio::Writer payload;
  payload.u64(key);
  run_result_encode(payload, result);
  binio::Writer rec;
  rec.str(payload.bytes());  // u32 payload_len + payload
  rec.u64(binio::checksum(payload.bytes()));
  return rec.take();
}

bool pread_exact(int fd, char* buf, std::size_t len, std::uint64_t offset) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, buf + got, len - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    put += static_cast<std::size_t>(n);
  }
  return true;
}

struct RawRecord {
  std::uint64_t key = 0;
  std::uint64_t payload_off = 0;
  std::uint32_t payload_len = 0;
};

struct ShardWalk {
  bool header_ok = false;
  std::size_t rejected = 0;  // 1 for a bad header or a bad record, else 0
  std::uint64_t bytes = 0;   // the file's size
};

/// Walks the records of the shard open as `fd`, calling `fn` for each
/// checksum-valid one. The file is read with pread (never moving the
/// offset of a shard fd that load() preads) into `buf`, a buffer reused
/// across shards: kIoChunk bytes at a time, grown only to fit a record
/// larger than itself, and never past the bytes left in the file. A bad
/// header rejects the whole shard. A torn tail, a bad length prefix or a
/// checksum mismatch counts one reject and stops the walk (records past a
/// bad length prefix cannot be re-synchronized).
template <typename Fn>
ShardWalk walk_shard(int fd, std::string& buf, Fn&& fn) {
  ShardWalk walk;
  walk.rejected = 1;
  struct stat st;
  if (::fstat(fd, &st) != 0) return walk;
  const auto size = static_cast<std::uint64_t>(st.st_size);
  walk.bytes = size;
  // buf holds the file bytes [held_off, held_off + held_len).
  std::uint64_t held_off = 0;
  std::size_t held_len = 0;
  // The n (<= size - pos) file bytes at pos, refilled from pos unless buf
  // holds them all; nullptr on a read error. The walk only moves forward.
  const auto view = [&](std::uint64_t pos, std::size_t n) -> const char* {
    if (pos + n > held_off + held_len) {
      held_off = pos;
      held_len = static_cast<std::size_t>(
          std::min<std::uint64_t>(std::max(n, kIoChunk), size - pos));
      if (buf.size() < held_len) buf.resize(held_len);
      if (!pread_exact(fd, buf.data(), held_len, pos)) {
        held_len = 0;
        return nullptr;
      }
    }
    return buf.data() + (pos - held_off);
  };
  const char* header =
      size < kShardHeaderSize ? nullptr : view(0, kShardHeaderSize);
  if (header == nullptr || !shard_header_ok(header)) return walk;
  walk.header_ok = true;
  for (std::uint64_t pos = kShardHeaderSize; pos < size;) {
    const char* prefix = size - pos < 4 ? nullptr : view(pos, 4);
    if (prefix == nullptr) return walk;
    const std::uint32_t len = binio::Reader(prefix, 4).u32();
    if (size - pos < kRecordOverhead + len || len < 8) return walk;
    const char* payload = view(pos, kRecordOverhead + len);
    if (payload == nullptr) return walk;
    payload += 4;
    if (binio::Reader(payload + len, 8).u64() !=
        binio::checksum(payload, len)) {
      return walk;
    }
    fn(RawRecord{binio::Reader(payload, 8).u64(), pos + 4, len});
    pos += kRecordOverhead + len;
  }
  walk.rejected = 0;
  return walk;
}

/// True when `rec` (length prefix, payload, checksum, as pread back from
/// an indexed location) is intact and holds `key`.
bool record_ok(const std::string& rec, std::uint64_t key) {
  const std::size_t len = rec.size() - kRecordOverhead;
  const char* payload = rec.data() + 4;
  return binio::Reader(rec.data(), 4).u32() == len &&
         binio::Reader(payload + len, 8).u64() ==
             binio::checksum(payload, len) &&
         binio::Reader(payload, 8).u64() == key;
}

/// Sequential writer of a shard being sealed: bytes reach the file in
/// kIoChunk pieces. offset() is the file offset of the next byte.
class ShardWriter {
 public:
  explicit ShardWriter(int fd) : fd_(fd) {}

  void append(std::string_view bytes) {
    if (buf_.size() + bytes.size() > kIoChunk) flush();
    if (bytes.size() < kIoChunk) {
      buf_.append(bytes);
      return;
    }
    ok_ = ok_ && write_all(fd_, bytes);
    written_ += bytes.size();
  }

  /// Writes out what is buffered; false once any write has failed.
  bool flush() {
    ok_ = ok_ && write_all(fd_, buf_);
    written_ += buf_.size();
    buf_.clear();
    return ok_;
  }

  std::uint64_t offset() const { return written_ + buf_.size(); }

 private:
  int fd_;
  std::string buf_;
  std::uint64_t written_ = 0;
  bool ok_ = true;
};

struct Published {
  std::string path;
  int fd = -1;  // -1: nothing was published
};

/// Seals a new shard: `fill` writes its bytes through a ShardWriter into a
/// unique temp file in `dir`, which is then published with link(2) at the
/// first free shard number ≥ `next_number` (link fails with EEXIST
/// instead of clobbering a shard a concurrent process published first).
/// The temp file's fd is returned open, so serving the new shard needs no
/// second open. Advances `next_number` past the claimed slot.
template <typename Fill>
Published publish_shard(const std::string& dir, Fill&& fill,
                        std::uint64_t& next_number) {
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp =
      (fs::path(dir) / ("tmp-" + std::to_string(::getpid()) + "-" +
                        std::to_string(tmp_seq.fetch_add(1)) + ".bpc"))
          .string();
  const int fd = ::open(tmp.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0666);
  if (fd < 0) return {};
  ShardWriter out(fd);
  try {
    fill(out);
  } catch (...) {
    ::unlink(tmp.c_str());
    ::close(fd);
    throw;
  }
  bool ok = out.flush();
  for (std::uint64_t n = next_number; ok; ++n) {
    const std::string path = (fs::path(dir) / shard_file_name(n)).string();
    if (::link(tmp.c_str(), path.c_str()) == 0) {
      ::unlink(tmp.c_str());
      next_number = n + 1;
      return {path, fd};
    }
    ok = errno == EEXIST;
  }
  ::unlink(tmp.c_str());
  ::close(fd);
  return {};
}

/// True while `path` still names the file open as `fd`. A merge unlinks a
/// shard only then, so it never deletes a shard another process has
/// since published under a name an earlier merge freed.
bool names_file(const std::string& path, int fd) {
  struct stat open_st;
  struct stat path_st;
  return ::fstat(fd, &open_st) == 0 && ::stat(path.c_str(), &path_st) == 0 &&
         open_st.st_dev == path_st.st_dev && open_st.st_ino == path_st.st_ino;
}

/// Exclusive flock(2) on the cache directory for the span of a merge.
/// Merges take turns across processes and DiskCache instances, so no
/// other merge can free a shard name between names_file() and the unlink.
struct DirLock {
  explicit DirLock(const std::string& dir)
      : fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY)) {
    if (fd >= 0) ::flock(fd, LOCK_EX);
  }
  ~DirLock() {
    if (fd >= 0) ::close(fd);
  }
  DirLock(const DirLock&) = delete;
  DirLock& operator=(const DirLock&) = delete;
  int fd;
};

/// Binary shards hold every double bit-exactly, but results that price to
/// inf/nan signal a broken scenario, and replaying them from cache would
/// hide the breakage behind a hit. Refuse them up front (counted
/// store_failures).
bool all_finite(const sim::RunResult& r) {
  const auto energy_finite = [](const sim::EnergyBreakdown& e) {
    return std::isfinite(e.compute_pj) && std::isfinite(e.sram_pj) &&
           std::isfinite(e.dram_pj) && std::isfinite(e.static_pj);
  };
  if (!std::isfinite(r.runtime_s) || !std::isfinite(r.energy_j) ||
      !std::isfinite(r.average_power_w) || !std::isfinite(r.gops_per_s) ||
      !std::isfinite(r.gops_per_w) || !std::isfinite(r.measured_wall_s) ||
      !energy_finite(r.energy)) {
    return false;
  }
  for (const sim::LayerResult& l : r.layers) {
    if (!std::isfinite(l.utilization) || !std::isfinite(l.runtime_s) ||
        !std::isfinite(l.measured_wall_s) || !energy_finite(l.energy)) {
      return false;
    }
  }
  return true;
}

}  // namespace

void run_result_encode(binio::Writer& w, const sim::RunResult& r) {
  w.str(r.platform);
  w.str(r.network);
  w.str(r.memory);
  w.str(r.backend);
  w.i64(r.total_cycles);
  w.i64(r.total_macs);
  energy_encode(w, r.energy);
  w.f64(r.runtime_s);
  w.f64(r.energy_j);
  w.f64(r.average_power_w);
  w.f64(r.gops_per_s);
  w.f64(r.gops_per_w);
  w.f64(r.measured_wall_s);
  w.i64(r.measured_macs);
  w.u32(static_cast<std::uint32_t>(r.layers.size()));
  for (const sim::LayerResult& l : r.layers) layer_encode(w, l);
}

sim::RunResult run_result_decode(binio::Reader& r) {
  sim::RunResult out;
  out.platform = r.str();
  out.network = r.str();
  out.memory = r.str();
  out.backend = r.str();
  out.total_cycles = r.i64();
  out.total_macs = r.i64();
  out.energy = energy_decode(r);
  out.runtime_s = r.f64();
  out.energy_j = r.f64();
  out.average_power_w = r.f64();
  out.gops_per_s = r.f64();
  out.gops_per_w = r.f64();
  out.measured_wall_s = r.f64();
  out.measured_macs = r.i64();
  const std::uint32_t n_layers = r.u32();
  if (n_layers > r.remaining() / min_layer_bytes()) {
    throw Error("run result: " + std::to_string(n_layers) +
                " layers cannot fit in the " + std::to_string(r.remaining()) +
                " bytes left");
  }
  out.layers.reserve(n_layers);
  for (std::uint32_t i = 0; i < n_layers; ++i) {
    out.layers.push_back(layer_decode(r));
  }
  return out;
}

DiskCache::DiskCache(std::string dir) : dir_(std::move(dir)) {
  BPVEC_CHECK_MSG(!dir_.empty(), "disk cache directory must be non-empty");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw Error("disk cache: cannot create directory " + dir_ + ": " +
                ec.message());
  }
  scan_dir();
}

DiskCache::~DiskCache() {
  for (const Shard& s : shards_) {
    if (s.fd >= 0) ::close(s.fd);
  }
}

void DiskCache::scan_dir() {
  // Single-threaded (constructor), but keep the lock discipline uniform.
  std::unique_lock lock(index_mu_);
  std::string buf;  // one read buffer for every shard
  for (const auto& [number, path] : list_shards(dir_)) {
    next_shard_ = std::max(next_shard_, number + 1);
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    file_opens_.fetch_add(1, std::memory_order_relaxed);
    const auto shard_idx = static_cast<std::uint32_t>(shards_.size());
    const ShardWalk walk = walk_shard(fd, buf, [&](const RawRecord& rec) {
      index_[rec.key] = Loc{shard_idx, rec.payload_off, rec.payload_len};
    });
    rejected_.fetch_add(walk.rejected, std::memory_order_relaxed);
    if (walk.header_ok) {
      shards_.push_back(Shard{path, fd});
    } else {
      // Foreign format version, garbage, or unreadable: skip the whole
      // file (one reject) and never serve from it. Its number stays
      // claimed so we never write over it.
      ::close(fd);
    }
  }
}

std::shared_ptr<const sim::RunResult> DiskCache::load(
    std::uint64_t key) const {
  Loc loc;
  std::string rec;
  bool read = false;
  {
    std::shared_lock lock(index_mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    loc = it->second;
    rec.resize(kRecordOverhead + loc.len);
    // Read under the lock: a merge closes the fds of the shards it folds.
    read = pread_exact(shards_[loc.shard].fd, rec.data(), rec.size(),
                       loc.offset - 4);
  }
  try {
    if (!read || !record_ok(rec, key)) throw Error("record changed on disk");
    binio::Reader r(rec.data() + 4 + 8, loc.len - 8);  // past the key
    auto result = std::make_shared<sim::RunResult>(run_result_decode(r));
    if (!r.done()) throw Error("trailing bytes in record");
    hits_.fetch_add(1, std::memory_order_relaxed);
    return result;
  } catch (const std::exception&) {
    // Corrupted on disk since the scan: a miss, never a failure — the
    // caller re-prices and a later batch re-stores it.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
}

std::size_t DiskCache::store_batch(
    const std::vector<PendingStore>& pending) const {
  // Encoded outside the lock. Offsets are relative to `fresh` until the
  // bytes in front of it (the header, plus any merged records) are known.
  std::string fresh;
  std::vector<std::pair<std::uint64_t, Loc>> entries;
  entries.reserve(pending.size());
  for (const PendingStore& p : pending) {
    if (p.result == nullptr || !all_finite(*p.result)) {
      store_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::string rec = encode_record(p.key, *p.result);
    entries.emplace_back(
        p.key,
        Loc{0, fresh.size() + 4,
            static_cast<std::uint32_t>(rec.size() - kRecordOverhead)});
    fresh += rec;
  }
  if (entries.empty()) return 0;

  std::unique_lock lock(index_mu_);
  // One more shard would pass the bound: the new shard also carries every
  // live record of the shards this cache indexes, and replaces them.
  const bool merge = shards_.size() >= kMaxShards;
  std::optional<DirLock> dir_lock;
  std::unordered_map<std::uint64_t, Loc> merged;
  std::vector<std::pair<std::uint64_t, Loc>> carried;
  if (merge) {
    dir_lock.emplace(dir_);
    // Seeded with this batch's keys (re-pointed below), so no record the
    // batch replaces is carried.
    merged.insert(entries.begin(), entries.end());
    for (const auto& entry : index_) {
      if (merged.count(entry.first) == 0) carried.push_back(entry);
    }
    // In (shard, offset) order: the order the records sit in the shards.
    std::sort(carried.begin(), carried.end(),
              [](const auto& a, const auto& b) {
                return std::tie(a.second.shard, a.second.offset) <
                       std::tie(b.second.shard, b.second.offset);
              });
  }
  std::uint64_t base = 0;
  const auto fill = [&](ShardWriter& out) {
    out.append(shard_header());
    // A live record moves verbatim (length prefix, payload and checksum,
    // never re-encoded) once it re-verifies. One corrupted since the scan
    // is dropped: a miss from now on, never a carried bad record.
    std::string rec;
    for (const auto& [key, loc] : carried) {
      rec.resize(kRecordOverhead + loc.len);
      if (!pread_exact(shards_[loc.shard].fd, rec.data(), rec.size(),
                       loc.offset - 4) ||
          !record_ok(rec, key)) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      merged[key] = Loc{0, out.offset() + 4, loc.len};
      out.append(rec);
    }
    base = out.offset();
    out.append(fresh);
  };
  const Published shard = publish_shard(dir_, fill, next_shard_);
  if (shard.fd < 0) {
    store_failures_.fetch_add(entries.size(), std::memory_order_relaxed);
    return 0;
  }
  file_opens_.fetch_add(1, std::memory_order_relaxed);
  if (merge) {
    // Only now that the merged shard is published: drop exactly the
    // shards it folded. Readers in other processes keep their open fds.
    for (const Shard& s : shards_) {
      if (names_file(s.path, s.fd)) ::unlink(s.path.c_str());
      ::close(s.fd);
    }
    shards_.clear();
    index_ = std::move(merged);
  }
  const auto shard_idx = static_cast<std::uint32_t>(shards_.size());
  shards_.push_back(Shard{shard.path, shard.fd});
  for (auto& [key, loc] : entries) {
    loc.shard = shard_idx;
    loc.offset += base;
    index_[key] = loc;
  }
  stores_.fetch_add(entries.size(), std::memory_order_relaxed);
  return entries.size();
}

bool DiskCache::store(std::uint64_t key, const sim::RunResult& result) const {
  return store_batch({PendingStore{key, &result}}) == 1;
}

DiskCacheStats DiskCache::stats() const {
  DiskCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.store_failures = store_failures_.load(std::memory_order_relaxed);
  s.file_opens = file_opens_.load(std::memory_order_relaxed);
  std::shared_lock lock(index_mu_);
  s.shards = shards_.size();
  s.records = index_.size();
  return s;
}

std::vector<std::string> DiskCache::shard_paths() const {
  std::shared_lock lock(index_mu_);
  std::vector<std::string> paths;
  paths.reserve(shards_.size());
  for (const Shard& s : shards_) paths.push_back(s.path);
  return paths;
}

// ---------------------------------------------------------------------------
// Maintenance.

CacheDirInfo inspect_cache_dir(const std::string& dir) {
  CacheDirInfo info;
  std::unordered_set<std::uint64_t> live;
  std::string buf;  // one read buffer for every shard
  for (const auto& [number, path] : list_shards(dir)) {
    (void)number;
    CacheShardInfo si;
    si.path = path;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      si.rejected = 1;
    } else {
      const ShardWalk walk = walk_shard(fd, buf, [&](const RawRecord& rec) {
        si.records += 1;
        live.insert(rec.key);
      });
      ::close(fd);
      si.rejected = walk.rejected;
      si.bytes = walk.bytes;
    }
    info.bytes_total += si.bytes;
    info.records_total += si.records;
    info.rejected_total += si.rejected;
    info.shards.push_back(std::move(si));
  }
  info.live_records = live.size();
  return info;
}

Value to_json(const CacheDirInfo& info) {
  Value v = Value::object();
  Value shards = Value::array();
  for (const CacheShardInfo& s : info.shards) {
    Value sv = Value::object();
    sv.set("path", s.path);
    sv.set("records", static_cast<std::int64_t>(s.records));
    sv.set("rejected", static_cast<std::int64_t>(s.rejected));
    sv.set("bytes", static_cast<std::int64_t>(s.bytes));
    shards.push_back(std::move(sv));
  }
  v.set("shards", std::move(shards));
  v.set("records_total", static_cast<std::int64_t>(info.records_total));
  v.set("live_records", static_cast<std::int64_t>(info.live_records));
  v.set("rejected_total", static_cast<std::int64_t>(info.rejected_total));
  v.set("bytes_total", static_cast<std::int64_t>(info.bytes_total));
  return v;
}

}  // namespace bpvec::engine
