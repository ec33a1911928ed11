#include "src/engine/disk_cache.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <system_error>
#include <unordered_set>
#include <utility>

#include "src/common/error.h"

namespace bpvec::engine {

namespace fs = std::filesystem;
using common::json::Value;
namespace binio = common::binio;

namespace {

// --------------------------------------------------------------------------
// Binary codec — the v3 record body.

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

// --------------------------------------------------------------------------
// Shard file layout.

constexpr char kShardMagic[4] = {'B', 'P', 'C', '3'};
constexpr std::size_t kShardHeaderSize = 8;  // magic + u32 version
// Per record: u32 payload_len before the payload, u64 checksum after.
constexpr std::size_t kRecordOverhead = 12;

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

bool shard_header_ok(const std::string& bytes) {
  if (bytes.size() < kShardHeaderSize) return false;
  if (std::memcmp(bytes.data(), kShardMagic, sizeof kShardMagic) != 0) {
    return false;
  }
  binio::Reader r(bytes.data() + 4, 4);
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
/// shards win duplicate keys).
std::vector<std::pair<std::uint64_t, std::string>> list_shards(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> shards;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::uint64_t number = 0;
    if (entry.is_regular_file(ec) &&
        parse_shard_name(entry.path().filename().string(), number)) {
      shards.emplace_back(number, entry.path().string());
    }
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

struct RawRecord {
  std::uint64_t key = 0;
  std::uint64_t generation = 0;
  std::size_t payload_off = 0;
  std::uint32_t payload_len = 0;
};

/// Walks the records of an already-header-checked shard, calling `fn` for
/// each checksum-valid one. Returns the number of rejected records —
/// a torn tail or in-place corruption yields exactly one reject and stops
/// the walk (records past a bad length prefix cannot be re-synchronized).
template <typename Fn>
std::size_t walk_shard_records(const std::string& bytes, Fn&& fn) {
  std::size_t pos = kShardHeaderSize;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 4) return 1;
    binio::Reader len_r(bytes.data() + pos, 4);
    const std::uint32_t len = len_r.u32();
    if (bytes.size() - pos < kRecordOverhead + len || len < 16) return 1;
    const char* payload = bytes.data() + pos + 4;
    binio::Reader ck_r(payload + len, 8);
    if (ck_r.u64() != binio::checksum(payload, len)) return 1;
    RawRecord rec;
    binio::Reader head(payload, 16);
    rec.key = head.u64();
    rec.generation = head.u64();
    rec.payload_off = pos + 4;
    rec.payload_len = len;
    fn(rec);
    pos += kRecordOverhead + len;
  }
  return 0;
}

/// One serialized record (length prefix + payload + checksum).
std::string encode_record(std::uint64_t key, std::uint64_t generation,
                          const sim::RunResult& result) {
  binio::Writer payload;
  payload.u64(key);
  payload.u64(generation);
  run_result_encode(payload, result);
  binio::Writer rec;
  rec.u32(static_cast<std::uint32_t>(payload.size()));
  return rec.take() + payload.bytes() +
         [&] {
           binio::Writer ck;
           ck.u64(binio::checksum(payload.bytes()));
           return ck.take();
         }();
}

bool read_whole_fd(int fd, std::string& out) {
  struct stat st;
  if (::fstat(fd, &st) != 0) return false;
  out.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return true;
}

bool read_whole_file(const std::string& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = read_whole_fd(fd, out);
  ::close(fd);
  return ok;
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

/// Seals `bytes` as a new shard: written to a unique temp file in `dir`,
/// then published with link(2) at the first free shard number ≥
/// `next_number` (link fails with EEXIST instead of clobbering a shard a
/// concurrent process published first). Returns the published path ("" on
/// failure) and advances `next_number` past the claimed slot.
std::string publish_shard(const std::string& dir, const std::string& bytes,
                          std::uint64_t& next_number) {
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp =
      (fs::path(dir) / ("tmp-" + std::to_string(::getpid()) + "-" +
                        std::to_string(tmp_seq.fetch_add(1)) + ".bpc"))
          .string();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return {};
    }
  }
  for (std::uint64_t n = next_number;; ++n) {
    const std::string path = (fs::path(dir) / shard_file_name(n)).string();
    if (::link(tmp.c_str(), path.c_str()) == 0) {
      ::unlink(tmp.c_str());
      next_number = n + 1;
      return path;
    }
    if (errno != EEXIST) {
      ::unlink(tmp.c_str());
      return {};
    }
  }
}

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
  for (const auto& [number, path] : list_shards(dir_)) {
    next_shard_ = std::max(next_shard_, number + 1);
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    file_opens_.fetch_add(1, std::memory_order_relaxed);
    std::string bytes;
    if (!read_whole_fd(fd, bytes) || !shard_header_ok(bytes)) {
      // Foreign format version, garbage, or unreadable: skip the whole
      // file (one reject) and never serve from it. Its number stays
      // claimed so we never write over it.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const auto shard_idx = static_cast<std::uint32_t>(shards_.size());
    shards_.push_back(Shard{path, fd});
    const std::size_t bad =
        walk_shard_records(bytes, [&](const RawRecord& rec) {
          index_[rec.key] =
              Loc{shard_idx, rec.payload_off, rec.payload_len};
        });
    rejected_.fetch_add(bad, std::memory_order_relaxed);
  }
}

std::shared_ptr<const sim::RunResult> DiskCache::load(
    std::uint64_t key, std::uint64_t generation) const {
  int fd = -1;
  Loc loc;
  {
    std::shared_lock lock(index_mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    loc = it->second;
    fd = shards_[loc.shard].fd;
  }
  // The fd stays open for the cache's lifetime, and records are never
  // rewritten in place, so the positional read needs no lock.
  std::string buf(loc.len + 8, '\0');
  if (!pread_exact(fd, buf.data(), buf.size(), loc.offset)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  try {
    binio::Reader ck(buf.data() + loc.len, 8);
    if (ck.u64() != binio::checksum(buf.data(), loc.len)) {
      throw Error("checksum mismatch");
    }
    binio::Reader r(buf.data(), loc.len);
    if (r.u64() != key || r.u64() != generation) {
      throw Error("stale record");
    }
    auto result = std::make_shared<sim::RunResult>(run_result_decode(r));
    if (!r.done()) throw Error("trailing bytes in record");
    hits_.fetch_add(1, std::memory_order_relaxed);
    return result;
  } catch (const std::exception&) {
    // Corrupted-on-disk-since-scan or generation-stale: a miss, never a
    // failure — the caller re-prices and a later batch re-stores it.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
}

std::size_t DiskCache::store_batch(
    const std::vector<PendingStore>& pending) const {
  std::string bytes = shard_header();
  struct NewEntry {
    std::uint64_t key;
    Loc loc;
  };
  std::vector<NewEntry> entries;
  entries.reserve(pending.size());
  for (const PendingStore& p : pending) {
    if (p.result == nullptr || !all_finite(*p.result)) {
      store_failures_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const std::string rec = encode_record(p.key, p.generation, *p.result);
    entries.push_back(NewEntry{
        p.key, Loc{0, bytes.size() + 4,
                   static_cast<std::uint32_t>(rec.size() - kRecordOverhead)}});
    bytes += rec;
  }
  if (entries.empty()) return 0;

  std::unique_lock lock(index_mu_);
  const std::string path = publish_shard(dir_, bytes, next_shard_);
  if (path.empty()) {
    store_failures_.fetch_add(entries.size(), std::memory_order_relaxed);
    return 0;
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    // Published but unservable from this process; other processes (and
    // re-opens) will still see the records.
    store_failures_.fetch_add(entries.size(), std::memory_order_relaxed);
    return 0;
  }
  file_opens_.fetch_add(1, std::memory_order_relaxed);
  const auto shard_idx = static_cast<std::uint32_t>(shards_.size());
  shards_.push_back(Shard{path, fd});
  for (NewEntry& e : entries) {
    e.loc.shard = shard_idx;
    index_[e.key] = e.loc;
  }
  stores_.fetch_add(entries.size(), std::memory_order_relaxed);
  return entries.size();
}

bool DiskCache::store(std::uint64_t key, std::uint64_t generation,
                      const sim::RunResult& result) const {
  return store_batch({PendingStore{key, generation, &result}}) == 1;
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
  for (const auto& [number, path] : list_shards(dir)) {
    (void)number;
    CacheShardInfo si;
    si.path = path;
    std::string bytes;
    if (!read_whole_file(path, bytes)) {
      si.rejected = 1;
      info.shards.push_back(std::move(si));
      info.rejected_total += 1;
      continue;
    }
    si.bytes = bytes.size();
    info.bytes_total += bytes.size();
    if (!shard_header_ok(bytes)) {
      si.rejected = 1;
    } else {
      si.rejected = walk_shard_records(bytes, [&](const RawRecord& rec) {
        si.records += 1;
        live.insert(rec.key);
      });
    }
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

CompactResult compact_cache_dir(const std::string& dir) {
  CompactResult res;
  const auto shards = list_shards(dir);
  res.shards_before = shards.size();
  // Last writer wins: later shards overwrite earlier entries. std::map
  // keeps the output shard's record order deterministic.
  std::map<std::uint64_t, std::string> live;  // key -> raw record bytes
  std::uint64_t max_number = 0;
  std::size_t records_total = 0;
  for (const auto& [number, path] : shards) {
    max_number = std::max(max_number, number + 1);
    std::string bytes;
    if (!read_whole_file(path, bytes) || !shard_header_ok(bytes)) continue;
    walk_shard_records(bytes, [&](const RawRecord& rec) {
      records_total += 1;
      // Copy the whole record verbatim (length prefix + payload +
      // checksum): compaction moves records, it never re-encodes them.
      live[rec.key] = bytes.substr(rec.payload_off - 4,
                                   rec.payload_len + kRecordOverhead);
    });
  }
  res.records_kept = live.size();
  res.records_dropped = records_total - live.size();

  if (!live.empty()) {
    std::string out = shard_header();
    for (const auto& [key, rec] : live) {
      (void)key;
      out += rec;
    }
    std::uint64_t next = max_number;
    const std::string path = publish_shard(dir, out, next);
    if (path.empty()) {
      throw Error("compact: cannot publish compacted shard in " + dir);
    }
    res.shards_after = 1;
  }
  for (const auto& [number, path] : shards) {
    (void)number;
    std::error_code ec;
    fs::remove(path, ec);
  }
  return res;
}

}  // namespace bpvec::engine
