// DiskCache — the persistent on-disk result cache below SimEngine's
// in-memory memo caches.
//
// The in-memory caches die with the process; the paper-grid workloads
// (Figs. 5–9, CI regression replays, sweep scripts) re-price the same
// scenarios run after run. DiskCache persists whole sim::RunResults keyed
// by the exact fingerprints the memo caches already compute, so a warm
// `bpvec_run --cache-dir` serves every repeated scenario without
// simulating at all.
//
// Format v5: append-only packed binary shard files. A shard
// (`shard-NNNN.bpc`) is
//
//   header:  magic "BPC3" (kept across versions) + u32 format version
//   records: u32 payload_len
//            payload  = u64 key, packed RunResult
//                       (common::binio: fixed-width LE ints, bit-exact
//                       doubles)
//            u64 checksum(payload)  (binio's four-lane checksum; v4
//                                    used a single chain)
//
// At construction one directory scan walks every shard through one
// reused 64 KiB pread buffer (grown only for a larger record), verifies
// each record's length and checksum, and builds an in-memory
// key → (shard, offset) index; no shard is ever held whole in memory. The
// shard file descriptors stay open so a warm load is one positional
// pread + a memcpy walk — no per-entry open, no JSON parse. Writes are
// batched: SimEngine::run_batch collects every freshly priced result and
// seals them into ONE new shard per batch (written to a temp file,
// published atomically via link(2), never appended in place), so a warm
// replay of an M-scenario grid does O(shards) file opens instead of O(M).
//
// Sealing is the only compaction: a seal that would leave this cache
// indexing more than kMaxShards shards writes one merged shard of every
// live indexed record plus the new ones. The merge copies from the
// index, not from a re-read of the shards: each live entry, in
// (shard, offset) order, is pread into one reused buffer, re-verified
// (length prefix, checksum, key) and streamed verbatim into the new
// shard through a bounded write buffer. A record corrupted since the
// scan is dropped (counted `rejected`), never carried. Once the merged
// shard is published it unlinks exactly the shards it folded — never one
// it did not index — and readers elsewhere keep serving from their open
// fds.
//
// Entry key: hash_combine(Scenario::fingerprint(), backend->fingerprint())
// — both stable across processes (pure functions of the configs), and the
// backend instance fingerprint covers every pricing knob. The shard
// header's format version guards the record schema and checksum: bumping
// kFormatVersion orphans every older shard, which each scan rejects whole
// (one reject per shard) and never misreads, rewrites or deletes.
//
// Guarantees:
//   * Bit-identity: a loaded RunResult equals the stored one bit for bit
//     (integers verbatim, doubles as raw IEEE-754 bit patterns) —
//     run_batch output is byte-identical with the disk cache cold, warm,
//     or off.
//   * Crash/concurrency safety: shards are sealed before publication and
//     published with link(2) (fails instead of clobbering), so concurrent
//     runs sharing a cache dir (CI shards, parallel sweeps) can never
//     observe a torn record; duplicate keys across shards resolve
//     last-shard-wins with identical payloads. A cache opened mid-run by
//     another process simply doesn't see shards published after its scan
//     (misses, re-prices — never wrong numbers).
//   * Corruption tolerance: truncated shards, checksum-mismatched
//     records and foreign-version shards are counted `rejected` and
//     treated as misses — the cache can only ever cost a re-simulation,
//     never wrong numbers or a crash.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/binio.h"
#include "src/common/json.h"
#include "src/sim/simulator.h"

namespace bpvec::engine {

struct DiskCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;    // absent entries
  std::size_t rejected = 0;  // corrupt records or foreign-version shards
  std::size_t stores = 0;
  std::size_t store_failures = 0;  // I/O errors (cache stays best-effort)
  std::size_t file_opens = 0;      // shard files opened (scan + seals)
  std::size_t shards = 0;          // gauge: shard files resident
  std::size_t records = 0;         // gauge: live index entries
};

class DiskCache {
 public:
  /// Bump when the record schema or checksum changes; all older shards
  /// are rejected.
  static constexpr std::int64_t kFormatVersion = 5;  // v5: 4-lane checksum

  /// Most shards a cache indexes after a seal. Each holds an open fd, so
  /// this stays far below the kernel's 64-entry default fd table: growing
  /// that table in a threaded process waits in synchronize_rcu.
  static constexpr std::size_t kMaxShards = 8;

  /// A store_batch work item. `result` is borrowed — it must stay alive
  /// for the duration of the call.
  struct PendingStore {
    std::uint64_t key = 0;
    const sim::RunResult* result = nullptr;
  };

  /// Creates `dir` (and parents) if needed, then scans existing shards
  /// into the index; throws bpvec::Error when the directory cannot be
  /// created or listed. Unreadable or foreign-version shards count
  /// `rejected` and are skipped (and are never written to or deleted).
  explicit DiskCache(std::string dir);
  ~DiskCache();

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  /// Returns the cached RunResult for `key`, or nullptr on miss.
  /// Never throws on bad cache contents — those count as `rejected`.
  std::shared_ptr<const sim::RunResult> load(std::uint64_t key) const;

  /// Seals every entry into one new shard (temp file + atomic link
  /// publish), merging past kMaxShards, and indexes them. Entries with
  /// non-finite doubles are refused up front (counted store_failures:
  /// such results can poison a comparison downstream, so a cache hit
  /// never hides the breakage). Returns the number of records stored; on
  /// an I/O failure nothing is published or unlinked and every finite
  /// entry counts a store_failure.
  std::size_t store_batch(const std::vector<PendingStore>& pending) const;

  /// Single-entry convenience wrapper over store_batch: one record, one
  /// shard. Returns true when the record was stored.
  bool store(std::uint64_t key, const sim::RunResult& result) const;

  /// Consistent-enough snapshot of the counters (safe to call while pool
  /// threads probe/store).
  DiskCacheStats stats() const;

  const std::string& dir() const { return dir_; }

  /// Paths of the resident shard files, in scan/seal order (exposed for
  /// tests and tools that corrupt or inspect shards).
  std::vector<std::string> shard_paths() const;

 private:
  struct Loc {
    std::uint32_t shard = 0;  // index into shards_
    std::uint64_t offset = 0;  // payload start within the shard file
    std::uint32_t len = 0;     // payload length (checksum follows)
  };
  struct Shard {
    std::string path;
    int fd = -1;
  };

  void scan_dir();

  std::string dir_;

  mutable std::shared_mutex index_mu_;  // guards shards_ (and fds), index_
  mutable std::vector<Shard> shards_;
  mutable std::unordered_map<std::uint64_t, Loc> index_;
  mutable std::uint64_t next_shard_ = 0;

  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
  mutable std::atomic<std::size_t> rejected_{0};
  mutable std::atomic<std::size_t> stores_{0};
  mutable std::atomic<std::size_t> store_failures_{0};
  mutable std::atomic<std::size_t> file_opens_{0};
};

/// Packed binary serialization of a RunResult (common::binio; the record
/// payload after its key). decode is the strict inverse and throws
/// bpvec::Error on truncation, and on a layer count too large for the
/// bytes left, before it allocates for the layers.
void run_result_encode(common::binio::Writer& w, const sim::RunResult& r);
sim::RunResult run_result_decode(common::binio::Reader& r);

// ---------------------------------------------------------------------------
// Cache-directory inspection (`bpvec_cache inspect` is a thin CLI over
// it; a library function so tests and e2e_trace can call it directly).

struct CacheShardInfo {
  std::string path;
  std::size_t records = 0;   // checksum-valid records
  std::size_t rejected = 0;  // corrupt/truncated records or a bad header
  std::uint64_t bytes = 0;
};

struct CacheDirInfo {
  std::vector<CacheShardInfo> shards;
  std::size_t records_total = 0;  // valid records across shards
  std::size_t live_records = 0;   // distinct keys (last writer wins)
  std::size_t rejected_total = 0;
  std::uint64_t bytes_total = 0;
};

/// Read-only walk of a cache directory (no DiskCache instance needed).
/// Throws bpvec::Error naming `dir` when it is missing or unreadable.
CacheDirInfo inspect_cache_dir(const std::string& dir);
common::json::Value to_json(const CacheDirInfo& info);

}  // namespace bpvec::engine
