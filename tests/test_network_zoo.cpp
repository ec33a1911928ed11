// Verifies the model zoo against the paper's Table I (model size, op
// count, bitwidth assignment). Sizes/ops match the canonical architectures;
// tolerances cover counting-convention differences.
#include "src/dnn/model_zoo.h"

#include <gtest/gtest.h>

namespace bpvec::dnn {
namespace {

TEST(Network, StatsAccumulate) {
  Network net("tiny", NetworkType::kCnn);
  net.add(make_conv("c", {1, 8, 8, 2, 3, 3, 1, 1}));
  net.add(make_fc("f", {128, 10}));
  const auto s = net.stats();
  EXPECT_EQ(s.total_macs, 8LL * 8 * 2 * 9 + 1280);
  EXPECT_EQ(s.compute_layers, 2);
  EXPECT_DOUBLE_EQ(s.multiply_add_gops,
                   2.0 * static_cast<double>(s.total_macs) / 1e9);
}

struct ZooCase {
  const char* name;
  Network (*make)(BitwidthMode);
  double min_size_mb, max_size_mb;  // Table I: INT8 model size
  double min_gops, max_gops;        // multiply-adds
  bool all_4bit;                    // heterogeneous regime
};

// Without a printer gtest dumps the raw bytes of ZooCase (pointers and
// padding) into each test's listed name, so the name changes every run.
void PrintTo(const ZooCase& c, std::ostream* os) { *os << c.name; }

class ModelZooTest : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ModelZooTest, TableOneStatistics) {
  const auto& c = GetParam();
  const Network net = c.make(BitwidthMode::kHomogeneous8b);
  const auto s = net.stats();
  EXPECT_GE(s.model_size_mb_int8, c.min_size_mb) << net.name();
  EXPECT_LE(s.model_size_mb_int8, c.max_size_mb) << net.name();
  EXPECT_GE(s.multiply_add_gops, c.min_gops) << net.name();
  EXPECT_LE(s.multiply_add_gops, c.max_gops) << net.name();
}

TEST_P(ModelZooTest, HomogeneousModeIsAll8Bit) {
  const Network net = GetParam().make(BitwidthMode::kHomogeneous8b);
  for (const auto& l : net.layers()) {
    EXPECT_EQ(l.x_bits, 8);
    EXPECT_EQ(l.w_bits, 8);
  }
}

TEST_P(ModelZooTest, HeterogeneousModeFollowsTableOne) {
  const auto& c = GetParam();
  const Network net = c.make(BitwidthMode::kHeterogeneous);
  int first = -1, last = -1;
  const auto& layers = net.layers();
  for (int i = 0; i < static_cast<int>(layers.size()); ++i) {
    if (!layers[i].is_compute()) continue;
    if (first < 0) first = i;
    last = i;
  }
  ASSERT_GE(first, 0);
  for (int i = 0; i < static_cast<int>(layers.size()); ++i) {
    if (!layers[i].is_compute()) continue;
    const bool boundary = (i == first || i == last);
    const int expected = (!c.all_4bit && boundary) ? 8 : 4;
    EXPECT_EQ(layers[i].x_bits, expected) << layers[i].name;
    EXPECT_EQ(layers[i].w_bits, expected) << layers[i].name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, ModelZooTest,
    ::testing::Values(
        // name, factory, size range (MB), gops range, all-4bit?
        ZooCase{"AlexNet", make_alexnet, 50, 65, 2.0, 3.0, false},
        ZooCase{"Inception-v1", make_inception_v1, 5.5, 9.5, 2.5, 4.0,
                false},
        ZooCase{"ResNet-18", make_resnet18, 10, 12.5, 3.3, 4.5, false},
        ZooCase{"ResNet-50", make_resnet50, 23, 27, 7.5, 8.6, true},
        ZooCase{"RNN", make_rnn, 14, 17, 16, 18, true},
        ZooCase{"LSTM", make_lstm, 11, 13, 12, 14, true}),
    [](const ::testing::TestParamInfo<ZooCase>& info) {
      std::string n = info.param.name;
      for (auto& ch : n) {
        if (ch == '-') ch = '_';
      }
      return n;
    });

TEST(ModelZoo, AllModelsReturnsSixInPaperOrder) {
  const auto models = all_models(BitwidthMode::kHomogeneous8b);
  ASSERT_EQ(models.size(), 6u);
  EXPECT_EQ(models[0].name(), "AlexNet");
  EXPECT_EQ(models[1].name(), "Inception-v1");
  EXPECT_EQ(models[2].name(), "ResNet-18");
  EXPECT_EQ(models[3].name(), "ResNet-50");
  EXPECT_EQ(models[4].name(), "RNN");
  EXPECT_EQ(models[5].name(), "LSTM");
}

TEST(ModelZoo, CnnRnnTypesMatchTableOne) {
  EXPECT_EQ(make_alexnet(BitwidthMode::kHomogeneous8b).type(),
            NetworkType::kCnn);
  EXPECT_EQ(make_rnn(BitwidthMode::kHomogeneous8b).type(),
            NetworkType::kRnn);
  EXPECT_EQ(make_lstm(BitwidthMode::kHomogeneous8b).type(),
            NetworkType::kRnn);
}

TEST(ModelZoo, ResNet18LayerStructure) {
  const Network net = make_resnet18(BitwidthMode::kHomogeneous8b);
  // conv1 + 8 basic blocks (2 convs each) + 3 downsamples + fc = 21
  // compute layers.
  EXPECT_EQ(net.stats().compute_layers, 21);
}

TEST(ModelZoo, ResNet50LayerStructure) {
  const Network net = make_resnet50(BitwidthMode::kHomogeneous8b);
  // conv1 + 16 bottlenecks × 3 + 4 downsamples + fc = 54 compute layers.
  EXPECT_EQ(net.stats().compute_layers, 54);
}

TEST(ModelZoo, InceptionModulesCount) {
  const Network net = make_inception_v1(BitwidthMode::kHomogeneous8b);
  // conv1 + conv2(2) + 9 modules × 6 + classifier = 58 compute layers.
  EXPECT_EQ(net.stats().compute_layers, 58);
}

TEST(ModelZoo, BitwidthNotesMatchTableOne) {
  EXPECT_EQ(make_alexnet(BitwidthMode::kHeterogeneous).bitwidth_note(),
            "First and last layer 8-bit, the rest 4-bit");
  EXPECT_EQ(make_resnet50(BitwidthMode::kHeterogeneous).bitwidth_note(),
            "All layers with 4-bit");
  EXPECT_EQ(make_lstm(BitwidthMode::kHomogeneous8b).bitwidth_note(),
            "All layers 8-bit");
}

}  // namespace
}  // namespace bpvec::dnn
