#include "src/workload/network_registry.h"

#include <utility>

#include "src/common/error.h"
#include "src/common/hash.h"
#include "src/common/token.h"
#include "src/dnn/model_zoo.h"
#include "src/workload/schema.h"

namespace bpvec::workload {

namespace {

/// Content stamp of a prototype: name, labels, and structural
/// fingerprint — equal stamps mean registering it again changes nothing
/// observable, so the duplicate is tolerated (idempotent manifests).
std::uint64_t prototype_stamp(const dnn::Network& net) {
  common::ConfigHash f;
  f.str(net.name());
  f.str(net.bitwidth_note());
  f.i32(static_cast<int>(net.type()));
  for (const dnn::Layer& layer : net.layers()) f.str(layer.name);
  f.u64(network_fingerprint(net));
  return f.h;
}

void check_has_layers(const std::string& key, const dnn::Network& net) {
  if (net.layers().empty()) {
    throw Error("NetworkRegistry: network \"" + key + "\" has no layers");
  }
}

/// Runs body(i) for i in [0, n); a bpvec::Error from entry i is rethrown
/// after storing i in `*failed` (when non-null).
template <typename Body>
void for_each_entry(std::size_t n, std::size_t* failed, Body&& body) {
  std::size_t i = 0;
  try {
    for (; i < n; ++i) body(i);
  } catch (const Error&) {
    if (failed != nullptr) *failed = i;
    throw;
  }
}

}  // namespace

NetworkRegistry::NetworkRegistry() {
  register_factory("alexnet", dnn::make_alexnet);
  register_factory("inception_v1", dnn::make_inception_v1);
  register_factory("resnet18", dnn::make_resnet18);
  register_factory("resnet50", dnn::make_resnet50);
  register_factory("rnn", dnn::make_rnn);
  register_factory("lstm", dnn::make_lstm);
}

NetworkRegistry& NetworkRegistry::instance() {
  static NetworkRegistry registry;
  return registry;
}

const std::vector<std::string>& NetworkRegistry::builtin_tokens() {
  static const std::vector<std::string> tokens{
      "alexnet", "inception_v1", "resnet18", "resnet50", "rnn", "lstm"};
  return tokens;
}

void NetworkRegistry::insert(std::vector<std::pair<std::string, Entry>> batch,
                             std::size_t* failed) {
  std::lock_guard<std::mutex> lock(mu_);
  // Every key is checked before any is inserted.
  std::vector<std::string> norms(batch.size());
  std::map<std::string, std::size_t> staged;  // norm → first batch index
  std::vector<bool> fresh(batch.size(), false);
  for_each_entry(batch.size(), failed, [&](std::size_t i) {
    const std::string& key = batch[i].first;
    BPVEC_CHECK_MSG(!key.empty(), "network key must be non-empty");
    norms[i] = common::normalize_token(key);
    BPVEC_CHECK_MSG(!norms[i].empty(), "network key must contain a token "
                                       "character: " + key);
    const Entry* taken = nullptr;
    if (auto it = entries_.find(norms[i]); it != entries_.end()) {
      taken = &it->second;
    } else if (auto s = staged.find(norms[i]); s != staged.end()) {
      taken = &batch[s->second].second;
    }
    if (taken == nullptr) {
      staged.emplace(norms[i], i);
      fresh[i] = true;
      return;
    }
    // Identical prototype content: a manifest re-registering its own
    // workloads (every expand() call) must be a no-op, not an error.
    const Entry& entry = batch[i].second;
    if (entry.prototype_stamp && taken->prototype_stamp &&
        *entry.prototype_stamp == *taken->prototype_stamp) {
      return;
    }
    throw Error("NetworkRegistry: network \"" + key +
                "\" is already registered (tokens match case- and "
                "separator-insensitively)");
  });
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!fresh[i]) continue;
    entries_.emplace(std::move(norms[i]), std::move(batch[i].second));
    order_.push_back(std::move(batch[i].first));
  }
}

void NetworkRegistry::register_factory(std::string key,
                                       NetworkFactory factory) {
  BPVEC_CHECK_MSG(static_cast<bool>(factory),
                  "network factory must be set: " + key);
  std::vector<std::pair<std::string, Entry>> batch;
  batch.emplace_back(std::move(key), Entry{std::move(factory), std::nullopt});
  insert(std::move(batch), nullptr);
}

void NetworkRegistry::register_network(std::string key,
                                       dnn::Network prototype) {
  std::vector<Prototype> batch;
  batch.push_back({std::move(key), std::move(prototype)});
  register_networks(std::move(batch));
}

void NetworkRegistry::register_networks(std::vector<Prototype> batch,
                                        std::size_t* failed) {
  std::vector<std::pair<std::string, Entry>> entries(batch.size());
  for_each_entry(batch.size(), failed, [&](std::size_t i) {
    check_has_layers(batch[i].key, batch[i].network);
    const std::uint64_t stamp = prototype_stamp(batch[i].network);
    auto factory = [proto = std::move(batch[i].network)](
                       dnn::BitwidthMode mode) {
      dnn::Network net = proto;
      if (mode == dnn::BitwidthMode::kHomogeneous8b) {
        // The zoo's homogeneous regime, applied uniformly to user
        // networks: declared bitwidths are the heterogeneous regime.
        apply_bitwidth_policy(net, "uniform:8");
      }
      return net;
    };
    entries[i] = {std::move(batch[i].key), Entry{std::move(factory), stamp}};
  });
  insert(std::move(entries), failed);
}

dnn::Network NetworkRegistry::create(const std::string& token,
                                     dnn::BitwidthMode mode) const {
  NetworkFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(common::normalize_token(token));
    if (it == entries_.end()) {
      throw Error("NetworkRegistry: unknown network \"" + token +
                  "\"; registered networks: " +
                  common::quoted_token_list(order_));
    }
    factory = it->second.factory;  // copy: run outside the lock
  }
  dnn::Network net = factory(mode);
  check_has_layers(token, net);
  return net;
}

bool NetworkRegistry::contains(const std::string& token) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(common::normalize_token(token)) != 0;
}

std::optional<std::string> NetworkRegistry::canonical_key(
    const std::string& token) const {
  const std::string norm = common::normalize_token(token);
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(norm) == 0) return std::nullopt;
  for (const std::string& key : order_) {
    if (common::normalize_token(key) == norm) return key;
  }
  return std::nullopt;  // unreachable: order_ mirrors entries_
}

std::vector<std::string> NetworkRegistry::tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return order_;
}

}  // namespace bpvec::workload
