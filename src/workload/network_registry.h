// String-keyed registry of workloads — the network analogue of
// backend::BackendRegistry. Everything above the dnn layer (manifests,
// the CLI, DSE base scenarios, benches) resolves network tokens through
// it, so registering a network makes it reachable from every grid,
// search, and report without touching any other layer.
//
// Builtins registered at construction (the Table I zoo, in paper order):
//   "alexnet" "inception_v1" "resnet18" "resnet50" "rnn" "lstm"
//
// Two registration shapes:
//   * a Factory(BitwidthMode) — private: only the zoo builtins register
//     this way (the mode picks the Table I homogeneous/heterogeneous
//     regime);
//   * a fixed prototype Network (how JSON files, inline manifest blocks,
//     and generators register). The mode still applies:
//     kHomogeneous8b forces every layer to 8/8 (exactly the zoo's
//     homogeneous regime), kHeterogeneous keeps the declared per-layer
//     bitwidths.
//
// As in BackendRegistry, registration is *not* last-wins — a silently
// replaced network would repoint every manifest that names the token.
// A batch (a manifest's declared workloads) registers all or nothing.
// The documented error contract (see tests/test_workload.cpp):
//   * registering a key whose normalized token is already taken throws
//       `network "<key>" is already registered`
//     …unless both registrations are prototypes with identical content
//     (same name, same structural fingerprint, same declared bitwidths),
//     which is a no-op — so re-expanding one manifest is idempotent;
//   * registering (or creating) a network with no layers throws
//       `network "<key>" has no layers`.
//
// Token lookup uses common::normalize_token (case-insensitive, '-'/'_'
// ignored), the same rule as every manifest vocabulary.
#pragma once

#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/dnn/network.h"

namespace bpvec::workload {

using NetworkFactory = std::function<dnn::Network(dnn::BitwidthMode)>;

class NetworkRegistry {
 public:
  /// Process-wide registry (thread-safe).
  static NetworkRegistry& instance();

  /// One fixed prototype and the key it registers under.
  struct Prototype {
    std::string key;
    dnn::Network network;
  };

  /// Registers a fixed prototype (declared bitwidths = its heterogeneous
  /// regime). Re-registering the identical prototype under the same key
  /// is a no-op; a different network under a taken key throws. Throws on
  /// an empty layer list. A batch of one for register_networks.
  void register_network(std::string key, dnn::Network prototype);

  /// Registers every prototype or none: each key is checked, under one
  /// lock, against the registry and the batch's earlier entries before
  /// any is inserted. Throws register_network's error for the first
  /// entry that fails, after storing its index in `*failed` (when
  /// non-null), so a manifest names the workload entry it came from.
  void register_networks(std::vector<Prototype> batch,
                         std::size_t* failed = nullptr);

  /// Instantiates the network registered under `token` at `mode`.
  /// Throws bpvec::Error listing the registered tokens on an unknown
  /// token, and validates the produced network (non-empty layers).
  dnn::Network create(const std::string& token,
                      dnn::BitwidthMode mode) const;

  /// True when `token` (normalized) resolves to a registered network.
  bool contains(const std::string& token) const;

  /// The canonical key for `token`, or nullopt when unknown.
  std::optional<std::string> canonical_key(const std::string& token) const;

  /// Every registered key, in registration order (builtins first, in
  /// Table I order) — the canonical network-token vocabulary error
  /// messages and `bpvec_run list` print.
  std::vector<std::string> tokens() const;

  /// The six zoo tokens, in Table I order (what a manifest's "all"
  /// expands to — user registrations deliberately excluded so "all"
  /// keeps meaning the paper's evaluation set).
  static const std::vector<std::string>& builtin_tokens();

 private:
  NetworkRegistry();  // registers the zoo builtins

  /// Registers a mode-aware factory under `key` (the zoo builtins).
  /// Throws bpvec::Error on an empty key/factory or a duplicate
  /// (normalized) key.
  void register_factory(std::string key, NetworkFactory factory);

  struct Entry {
    NetworkFactory factory;
    /// Content stamp for prototype registrations (name + structure +
    /// declared bits); factories have none — they are never idempotent.
    std::optional<std::uint64_t> prototype_stamp;
  };

  /// The one insertion path: all of `batch` or none of it (see
  /// register_networks).
  void insert(std::vector<std::pair<std::string, Entry>> batch,
              std::size_t* failed);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;  // by normalized token
  std::vector<std::string> order_;        // canonical keys, insertion order
};

}  // namespace bpvec::workload
