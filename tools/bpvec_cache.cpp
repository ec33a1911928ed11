// bpvec_cache — disk-cache directory maintenance.
//
//   bpvec_cache inspect DIR
//       Walk the shard files and print a JSON summary: per-shard record
//       and byte counts, rejected (corrupt/foreign) records, live record
//       count after last-writer-wins, and total bytes. Files that are
//       not shards are ignored.
//       Read-only; safe against a live cache.
//
//   bpvec_cache compact DIR
//       Rewrite every live record (checksum-valid, last writer wins)
//       into one fresh shard and delete the old shards. Record payloads
//       are copied verbatim, so compaction can never change what a later
//       load returns. Do not run against a directory another process is
//       actively writing.
//
// All logic lives in src/engine/disk_cache.cpp so tests can drive it
// in-process.
#include <iostream>
#include <string>

#include "src/engine/disk_cache.h"

namespace {

void usage(std::ostream& out) {
  out << "usage: bpvec_cache inspect DIR   summarize shard files (JSON)\n"
         "       bpvec_cache compact DIR   merge shards, drop dead records\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    usage(std::cerr);
    return 2;
  }
  const std::string cmd = argv[1];
  const std::string dir = argv[2];
  try {
    if (cmd == "inspect") {
      std::cout << bpvec::engine::to_json(bpvec::engine::inspect_cache_dir(dir))
                       .dump(1)
                << "\n";
      return 0;
    }
    if (cmd == "compact") {
      const bpvec::engine::CompactResult r =
          bpvec::engine::compact_cache_dir(dir);
      std::cout << "compacted " << dir << ": " << r.shards_before
                << " shards -> " << r.shards_after << ", " << r.records_kept
                << " records kept, " << r.records_dropped << " dropped\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "bpvec_cache: " << e.what() << "\n";
    return 1;
  }
  usage(std::cerr);
  return 2;
}
