// ParamSpace: axis validation, canonical enumeration order, candidate
// keys and scenario materialization.
#include "src/dse/param_space.h"

#include <gtest/gtest.h>

#include "src/common/error.h"
#include "src/dnn/model_zoo.h"
#include "src/engine/scenario.h"

namespace bpvec::dse {
namespace {

ParamSpace small_space() {
  ParamSpace space;
  space.add_axis(Knob::kCvuSliceBits, {1, 2, 4});
  space.add_axis(Knob::kCvuLanes, {4, 16});
  space.add_axis(Knob::kMemBandwidthGbps, {16.0, 64.0});
  return space;
}

TEST(ParamSpace, SizeIsTheCrossProduct) {
  EXPECT_EQ(small_space().size(), 12u);
  EXPECT_EQ(ParamSpace{}.size(), 0u);
}

TEST(ParamSpace, EnumerationIsRowMajorFirstAxisOutermost) {
  const ParamSpace space = small_space();
  // flat 0 → (0,0,0); flat 1 flips the innermost (bandwidth) axis.
  EXPECT_EQ(space.at(0).choice, (std::vector<std::size_t>{0, 0, 0}));
  EXPECT_EQ(space.at(1).choice, (std::vector<std::size_t>{0, 0, 1}));
  EXPECT_EQ(space.at(4).choice, (std::vector<std::size_t>{1, 0, 0}));
  EXPECT_EQ(space.at(11).choice, (std::vector<std::size_t>{2, 1, 1}));
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.flat_index(space.at(i)), i);
  }
}

TEST(ParamSpace, ValueAndLabel) {
  const ParamSpace space = small_space();
  const Candidate c = space.at(5);  // slice=2, lanes=4, bw=64
  EXPECT_EQ(space.value(c, 0), 2.0);
  EXPECT_EQ(*space.value(c, Knob::kCvuLanes), 4.0);
  EXPECT_EQ(*space.value(c, Knob::kMemBandwidthGbps), 64.0);
  EXPECT_FALSE(space.value(c, Knob::kBatchSize).has_value());
  EXPECT_EQ(space.label(c),
            "cvu_slice_bits=2 cvu_lanes=4 bandwidth_gbps=64.0");
}

TEST(ParamSpace, CandidateKeysDistinguishEveryPoint) {
  const ParamSpace space = small_space();
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < space.size(); ++i) {
    keys.push_back(space.candidate_key(space.at(i)));
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
  }
  // Keys are stable: recomputing gives the same value.
  EXPECT_EQ(space.candidate_key(space.at(3)), keys[3]);
}

TEST(ParamSpace, RejectsBadAxes) {
  ParamSpace space;
  space.add_axis(Knob::kCvuLanes, {4, 16});
  EXPECT_THROW(space.add_axis(Knob::kCvuLanes, {8}), Error);   // duplicate
  EXPECT_THROW(space.add_axis(Knob::kRows, {}), Error);        // empty
  EXPECT_THROW(space.add_axis(Knob::kBatchSize, {1.5}), Error);  // fractional
  // Double knobs accept fractional values.
  space.add_axis(Knob::kMemBandwidthGbps, {12.5});
  EXPECT_EQ(space.num_axes(), 2u);
}

TEST(ParamSpace, KnobTokensRoundTrip) {
  for (const std::string& token : knob_tokens()) {
    const auto knob = knob_from_token(token);
    ASSERT_TRUE(knob.has_value()) << token;
    EXPECT_EQ(to_string(*knob), token);
  }
  EXPECT_EQ(knob_from_token("CVU-Slice-Bits"), Knob::kCvuSliceBits);
  EXPECT_FALSE(knob_from_token("warp_speed").has_value());
}

TEST(ParamSpace, MaterializeAppliesEveryKnobKind) {
  ParamSpace space;
  space.add_axis(Knob::kCvuSliceBits, {4});
  space.add_axis(Knob::kCvuLanes, {8});
  space.add_axis(Knob::kRows, {8});
  space.add_axis(Knob::kScratchpadBytes, {65536});
  space.add_axis(Knob::kBatchSize, {4});
  space.add_axis(Knob::kMemBandwidthGbps, {32.0});
  const engine::Scenario base = engine::make_scenario(
      engine::Platform::kBpvec, engine::Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b));
  const engine::Scenario s = space.materialize(space.at(0), base);
  EXPECT_EQ(s.platform.cvu.slice_bits, 4);
  EXPECT_EQ(s.platform.cvu.lanes, 8);
  EXPECT_EQ(s.platform.rows, 8);
  EXPECT_EQ(s.platform.scratchpad_bytes, 65536);
  EXPECT_EQ(s.platform.batch_size, 4);
  EXPECT_EQ(s.memory.bandwidth_gbps, 32.0);
  // Untouched knobs keep the base values; the id is label-stamped.
  EXPECT_EQ(s.platform.cols, base.platform.cols);
  EXPECT_EQ(s.backend, base.backend);
  EXPECT_NE(s.id.find(base.id), std::string::npos);
  EXPECT_NE(s.id.find("cvu_slice_bits=4"), std::string::npos);
  // Different candidates get different fingerprints.
  EXPECT_NE(s.fingerprint(), base.fingerprint());
}

TEST(ParamSpace, MaterializeRejectsInvalidConfigs) {
  ParamSpace space;
  space.add_axis(Knob::kCvuSliceBits, {3});  // 3 does not divide 8
  const engine::Scenario base = engine::make_scenario(
      engine::Platform::kBpvec, engine::Memory::kDdr4,
      dnn::make_lstm(dnn::BitwidthMode::kHomogeneous8b));
  EXPECT_THROW(space.materialize(space.at(0), base), Error);

  ParamSpace bad_mem;
  bad_mem.add_axis(Knob::kMemBandwidthGbps, {-1.0});
  EXPECT_THROW(bad_mem.materialize(bad_mem.at(0), base), Error);
}

TEST(ParamSpace, WorkloadAxesRegenerateTheNetwork) {
  ParamSpace space;
  space.add_axis(Knob::kNetDepth, {2, 3});
  space.add_axis(Knob::kNetWidth, {16});
  space.add_axis(Knob::kNetBits, {4});
  space.add_axis(Knob::kCvuLanes, {4, 16});
  const auto base = engine::make_scenario(
      engine::Platform::kBpvec, engine::Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b));
  const workload::GeneratorSpec generator{"mlp_family", 0, 0, "", ""};

  const engine::Scenario first =
      space.materialize(space.at(0), base, &generator);
  EXPECT_EQ(first.network.name(), "mlp_family-d2-w16-u4");
  EXPECT_EQ(first.network.layers().size(), 2u);
  EXPECT_EQ(first.network.layers()[0].x_bits, 4);
  EXPECT_EQ(first.platform.cvu.lanes, 4);
  // Ids stay unique per candidate (the label carries the net knobs).
  EXPECT_NE(first.id.find("net_depth=2"), std::string::npos);

  const engine::Scenario deeper =
      space.materialize(space.at(2), base, &generator);  // depth=3
  EXPECT_EQ(deeper.network.layers().size(), 3u);
  EXPECT_NE(first.fingerprint(), deeper.fingerprint());
}

TEST(ParamSpace, WorkloadAxesWithoutAGeneratorThrow) {
  ParamSpace space;
  space.add_axis(Knob::kNetDepth, {2});
  const auto base = engine::make_scenario(
      engine::Platform::kBpvec, engine::Memory::kDdr4,
      dnn::make_alexnet(dnn::BitwidthMode::kHomogeneous8b));
  try {
    (void)space.materialize(space.at(0), base);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("needs a workload generator"),
              std::string::npos)
        << e.what();
  }
  // 0 would silently mean "family default" — axis values must be
  // explicit positives.
  ParamSpace zero;
  zero.add_axis(Knob::kNetDepth, {0, 3});
  const workload::GeneratorSpec mlp{"mlp_family", 0, 0, "", ""};
  try {
    (void)zero.materialize(zero.at(0), base, &mlp);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "\"net_depth\" values must be positive"),
              std::string::npos)
        << e.what();
  }
  // Out-of-range picks surface as invalid-workload candidate errors.
  ParamSpace bad;
  bad.add_axis(Knob::kNetBits, {9});
  const workload::GeneratorSpec generator{"mlp_family", 0, 0, "", ""};
  try {
    (void)bad.materialize(bad.at(0), base, &generator);
    FAIL() << "expected an error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid workload"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bpvec::dse
