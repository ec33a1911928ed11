// Memo — a thread-safe in-memory map from 64-bit fingerprints to values.
//
// One shared_mutex guards the map: lookups copy the value out under the
// reader lock, inserts take the writer lock. Values must be cheap to copy
// or held behind a shared_ptr — find() returns a copy so no reference
// outlives the lock.
//
// Keys are fingerprints of pure computations, so two values built for
// one key are interchangeable: the first insert wins and later ones are
// dropped. get_or_build() therefore builds outside the lock; concurrent
// misses on one key may both build, and every caller gets the winner.
//
// Counters: hits()/misses() count get_or_build() calls. They are
// monotone — clear() drops entries but never rewinds them, so callers
// can subtract two snapshots.
//
// Capacity: a nonzero max_entries bounds the map. Inserting a new key
// into a full map clears it first (entries are recomputable, so an
// eviction policy is not worth its state); re-inserting a present key
// never clears.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

namespace bpvec::common {

template <typename V>
class Memo {
 public:
  /// max_entries == 0: unbounded.
  explicit Memo(std::size_t max_entries = 0) : max_entries_(max_entries) {}

  std::optional<V> find(std::uint64_t key) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  /// Stores `value` under `key` unless the key is present. Returns true
  /// when this call inserted.
  bool insert(std::uint64_t key, V value) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    return emplace_locked(key, std::move(value)).second;
  }

  /// Returns the value for `key`, calling `build()` outside the lock on a
  /// miss and inserting its result (first insert wins).
  template <typename Build>
  V get_or_build(std::uint64_t key, Build&& build) {
    if (std::optional<V> hit = find(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *std::move(hit);
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    V built = std::forward<Build>(build)();
    std::unique_lock<std::shared_mutex> lock(mu_);
    return emplace_locked(key, std::move(built)).first->second;
  }

  /// Drops every entry; counters keep their values.
  void clear() {
    std::unique_lock<std::shared_mutex> lock(mu_);
    map_.clear();
  }

  std::size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return map_.size();
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  using Map = std::unordered_map<std::uint64_t, V>;

  /// Caller holds the writer lock.
  std::pair<typename Map::iterator, bool> emplace_locked(std::uint64_t key,
                                                         V&& value) {
    if (max_entries_ != 0 && map_.size() >= max_entries_ &&
        !map_.contains(key)) {
      map_.clear();
    }
    return map_.try_emplace(key, std::move(value));
  }

  const std::size_t max_entries_;
  mutable std::shared_mutex mu_;
  Map map_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace bpvec::common
