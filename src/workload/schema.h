// The declarative network schema — workloads as data, not code.
//
// Every layer of the stack can vary platforms, memories, knobs, and cost
// backends, but before this subsystem the workload axis was frozen to the
// six Table I networks hard-coded in src/dnn/model_zoo.cpp. The schema
// lets users describe any layer stack the simulator can price as a JSON
// document:
//
//   {
//     "name": "TinyConv",
//     "type": "cnn",                       // cnn | rnn (optional, cnn)
//     "bitwidth_policy": "first_last_8",   // optional, see below
//     "layers": [
//       {"kind": "conv", "name": "conv1", "in_c": 3, "in_h": 32,
//        "in_w": 32, "out_c": 16, "kh": 3, "kw": 3,
//        "stride": 1, "pad": 1},                       // stride/pad optional
//       {"kind": "pool", "name": "pool1", "channels": 16, "in_h": 32,
//        "in_w": 32, "k": 2, "stride": 2, "pool": "max"},
//       {"kind": "fc", "name": "fc", "in_features": 4096,
//        "out_features": 10, "x_bits": 4, "w_bits": 4},
//       {"kind": "recurrent", "name": "r", "cell": "lstm",
//        "input_size": 64, "hidden_size": 64, "time_steps": 16}
//     ]
//   }
//
// Bitwidths resolve in three stages: every layer starts at 8/8; a named
// `bitwidth_policy` (applied to the whole net) may reassign them; an
// explicit per-layer `x_bits`/`w_bits` overrides the policy for that
// layer. Policies:
//
//   "uniform:<b>"    every layer b-bit (b in [1, 8]) — `uniform:8` is
//                    exactly the model zoo's homogeneous regime
//   "first_last_8"   first and last *compute* layer 8-bit, everything
//                    else (pools included, cosmetically) 4-bit — exactly
//                    the zoo's Table I heterogeneous CNN rule
//
// Validation is strict, manifest-style: unknown keys/kinds, empty layer
// lists, duplicate layer names, non-positive dimensions, and bitwidths
// outside [1, 8] are bpvec::Error with the offending layer named.
//
// to_json emits the fully explicit form (per-layer resolved bitwidths,
// no policy) and is byte-stable: to_json(parse_network(to_json(n)))
// serializes to the identical bytes as to_json(n). The zoo builtins
// round-trip bit-identically (guarded by tests/test_workload.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "src/common/json.h"
#include "src/dnn/network.h"

namespace bpvec::workload {

/// Parses a network document. Throws bpvec::Error naming the offending
/// key, layer, or value on any schema violation.
dnn::Network parse_network(const common::json::Value& root);

/// parse_network of a file (errors include the path).
dnn::Network load_network(const std::string& path);

/// Inverse of parse_network: the fully explicit form (resolved per-layer
/// bitwidths, every shape field present). Deterministic and byte-stable
/// under round trips.
common::json::Value to_json(const dnn::Network& net);

/// True iff `policy` is a recognized bitwidth-policy token.
bool is_bitwidth_policy(const std::string& policy);

/// `unknown bitwidth_policy "<policy>"; expected ...` — the one wording
/// for a rejected policy token, whichever reader met it.
std::string unknown_bitwidth_policy(const std::string& policy);

/// Applies a named policy to every layer (see the schema comment above
/// for the vocabulary). Throws bpvec::Error on an unknown policy or a
/// network with no compute layers. Sets the network's bitwidth_note to
/// the zoo's Table I wording for the matching regimes.
void apply_bitwidth_policy(dnn::Network& net, const std::string& policy);

/// Structural 64-bit fingerprint: layer kinds, shapes, and bitwidths in
/// order — names (network and layer) deliberately excluded, so two nets
/// that price identically share a fingerprint and a renamed copy of a
/// network dedupes against the original in every engine cache. Built on
/// backend::layer_fingerprint, the same per-layer hash the engine's
/// layer cache keys on. `time_chunk` is the recurrent time-batching
/// bound of the pricing platform (it shapes the GEMM view).
std::uint64_t network_fingerprint(const dnn::Network& net,
                                  int time_chunk = 16);

}  // namespace bpvec::workload
