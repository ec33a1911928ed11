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
// Format v3: append-only packed binary shard files. A shard
// (`shard-NNNN.bpc`) is
//
//   header:  magic "BPC3" + u32 format version
//   records: u32 payload_len
//            payload  = u64 key, u64 generation, packed RunResult
//                       (common::binio: fixed-width LE ints, bit-exact
//                       doubles)
//            u64 checksum(payload)
//
// At construction one directory scan reads every shard, verifies each
// record's length and checksum, and builds an in-memory
// key → (shard, offset) index; the shard file descriptors stay open so a
// warm load is one positional pread + a memcpy walk — no per-entry open,
// no JSON parse. Writes are batched: SimEngine::run_batch collects every
// freshly priced result and seals them into ONE new shard per batch
// (written to a temp file, published atomically via link(2), never
// appended in place), so a warm replay of an M-scenario grid does
// O(shards) file opens instead of O(M).
//
// Entry key: hash_combine(Scenario::fingerprint(), backend->fingerprint())
// — both stable across processes (pure functions of the configs), and the
// backend instance fingerprint covers every pricing knob, so two
// registrations of one backend key with different knobs can never share
// an entry. Each record additionally carries:
//   * the shard header's format version — bumping kFormatVersion orphans
//     every old shard (rejected on scan, never misread), and
//   * the backend key's registry generation — records written under one
//     registration are ignored after a re-registration, mirroring the
//     in-memory scenario cache's staleness rule. Generations are a
//     process-local counter: builtin backends register in a fixed order,
//     so their stamps agree across processes and records round-trip; a
//     process whose *custom* registration history differs sees foreign
//     stamps and conservatively re-prices (counted `rejected` — a
//     performance caveat, never a correctness one; records are rewritten
//     with the local stamp).
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
//   * Corruption tolerance: truncated shards, checksum-mismatched or
//     stale records are counted `rejected` and treated as misses — the
//     cache can only ever cost a re-simulation, never wrong numbers or a
//     crash.
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
  std::size_t rejected = 0;  // corrupt, version-stale, or generation-stale
  std::size_t stores = 0;
  std::size_t store_failures = 0;  // I/O errors (cache stays best-effort)
  std::size_t file_opens = 0;      // shard files opened (scan + seals)
  std::size_t shards = 0;          // gauge: shard files resident
  std::size_t records = 0;         // gauge: live index entries
};

class DiskCache {
 public:
  /// Bump when the record schema changes; all older shards/entries are
  /// rejected.
  static constexpr std::int64_t kFormatVersion = 3;  // v3: packed shards

  /// A store_batch work item. `result` is borrowed — it must stay alive
  /// for the duration of the call.
  struct PendingStore {
    std::uint64_t key = 0;
    std::uint64_t generation = 0;
    const sim::RunResult* result = nullptr;
  };

  /// Creates `dir` (and parents) if needed, then scans existing shards
  /// into the index; throws bpvec::Error when the directory cannot be
  /// created. Unreadable or foreign-version shards count `rejected` and
  /// are skipped (and are never written to).
  explicit DiskCache(std::string dir);
  ~DiskCache();

  DiskCache(const DiskCache&) = delete;
  DiskCache& operator=(const DiskCache&) = delete;

  /// Returns the cached RunResult for `key`, or nullptr on miss.
  /// `generation` must match the record's stamped registry generation.
  /// Never throws on bad cache contents — those count as `rejected`.
  std::shared_ptr<const sim::RunResult> load(std::uint64_t key,
                                             std::uint64_t generation) const;

  /// Seals every entry into one new shard (temp file + atomic link
  /// publish) and indexes them. Entries with non-finite doubles are
  /// refused up front (counted store_failures: such results can poison a
  /// comparison downstream, so a cache hit never hides the breakage).
  /// Returns the number of records stored; on an
  /// I/O failure nothing is published and every finite entry counts a
  /// store_failure.
  std::size_t store_batch(const std::vector<PendingStore>& pending) const;

  /// Single-entry convenience wrapper over store_batch: one record, one
  /// shard. Returns true when the record was stored.
  bool store(std::uint64_t key, std::uint64_t generation,
             const sim::RunResult& result) const;

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
  bool index_shard(std::uint32_t shard_idx, const std::string& bytes);

  std::string dir_;

  mutable std::shared_mutex index_mu_;  // guards shards_ + index_
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

/// Packed binary serialization of a RunResult (common::binio; the v3
/// record body). decode is the strict inverse and throws bpvec::Error on
/// truncation.
void run_result_encode(common::binio::Writer& w, const sim::RunResult& r);
sim::RunResult run_result_decode(common::binio::Reader& r);

// ---------------------------------------------------------------------------
// Cache-directory maintenance (the `bpvec_cache` tool is a thin CLI over
// these; exposed as library functions so tests can drive them directly).

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
CacheDirInfo inspect_cache_dir(const std::string& dir);
common::json::Value to_json(const CacheDirInfo& info);

struct CompactResult {
  std::size_t shards_before = 0;
  std::size_t shards_after = 0;  // 0 when the dir held no live records
  std::size_t records_kept = 0;
  std::size_t records_dropped = 0;  // superseded duplicates + corrupt
};

/// Rewrites every live record (checksum-valid, last writer wins) into one
/// fresh shard, then removes the old shards. Record payloads are copied
/// verbatim — compaction can never change what a later load returns.
/// Must not race concurrent writers to the same dir.
CompactResult compact_cache_dir(const std::string& dir);

}  // namespace bpvec::engine
