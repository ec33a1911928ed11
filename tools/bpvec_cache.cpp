// bpvec_cache — disk-cache directory inspection.
//
//   bpvec_cache inspect DIR
//       Walk the shard files and print a JSON summary: per-shard record
//       and byte counts, rejected (corrupt/foreign) records, live record
//       count after last-writer-wins, and total bytes. Files that are
//       not shards are ignored. A missing or unreadable DIR exits 1.
//       Read-only; safe against a live cache.
//
// There is no compaction command: every DiskCache seal merges the
// shards it indexes once they would pass DiskCache::kMaxShards.
// All logic lives in src/engine/disk_cache.cpp so tests can drive it
// in-process.
#include <iostream>
#include <string>

#include "src/engine/disk_cache.h"

int main(int argc, char** argv) {
  if (argc != 3 || std::string(argv[1]) != "inspect") {
    std::cerr << "usage: bpvec_cache inspect DIR   summarize shard files "
                 "(JSON)\n";
    return 2;
  }
  try {
    std::cout << bpvec::engine::to_json(
                     bpvec::engine::inspect_cache_dir(argv[2]))
                     .dump(1)
              << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bpvec_cache: " << e.what() << "\n";
    return 1;
  }
}
