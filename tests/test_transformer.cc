/**
 * @file test_transformer.cc
 * Tests for the transformer architecture presets: parameter counts
 * must land near their nominal sizes, since the paper's cost model
 * keys entirely off parameter-derived FLOPs and bytes.
 */
#include <gtest/gtest.h>

#include <ostream>

#include "common/check.h"
#include "models/transformer.h"
#include "tests/testing/test_support.h"

namespace rago::models {
namespace {

/// Nominal size in parameters and the allowed relative deviation.
struct SizeCase {
  const char* name;
  TransformerConfig (*factory)();
  double nominal;
  double tolerance;
};

// Prints the case as its preset name. Without it GoogleTest dumps the
// struct's bytes, pointers included, into the listed test name, and
// the name CTest discovers changes with every load address.
void PrintTo(const SizeCase& c, std::ostream* os) { *os << c.name; }

class ParamCountTest : public ::testing::TestWithParam<SizeCase> {};

TEST_P(ParamCountTest, ParamsNearNominal) {
  const SizeCase& c = GetParam();
  const TransformerConfig config = c.factory();
  EXPECT_NO_THROW(config.Validate());
  const double params = static_cast<double>(config.NumParams());
  RAGO_EXPECT_REL_NEAR(params, c.nominal, c.tolerance)
      << config.name << " has " << params << " params, nominal "
      << c.nominal;
}

INSTANTIATE_TEST_SUITE_P(
    Presets, ParamCountTest,
    ::testing::Values(SizeCase{"1B", &Llama1B, 1.24e9, 0.10},
                      SizeCase{"8B", &Llama8B, 8.0e9, 0.10},
                      SizeCase{"70B", &Llama70B, 70.6e9, 0.10},
                      SizeCase{"405B", &Llama405B, 405e9, 0.10},
                      SizeCase{"120M", &Encoder120M, 120e6, 0.15}));

TEST(Transformer, PresetsAreOrderedBySize) {
  EXPECT_LT(Encoder120M().NumParams(), Llama1B().NumParams());
  EXPECT_LT(Llama1B().NumParams(), Llama8B().NumParams());
  EXPECT_LT(Llama8B().NumParams(), Llama70B().NumParams());
  EXPECT_LT(Llama70B().NumParams(), Llama405B().NumParams());
}

TEST(Transformer, LlamaBySizeDispatch) {
  EXPECT_EQ(LlamaBySize(1).name, "Llama-1B");
  EXPECT_EQ(LlamaBySize(8).name, "Llama-8B");
  EXPECT_EQ(LlamaBySize(70).name, "Llama-70B");
  EXPECT_EQ(LlamaBySize(405).name, "Llama-405B");
  EXPECT_THROW(LlamaBySize(13), rago::ConfigError);
}

TEST(Transformer, WeightBytesEqualParamsForInt8) {
  const TransformerConfig c = Llama8B();
  EXPECT_DOUBLE_EQ(c.WeightBytes(),
                   static_cast<double>(c.NumParams()) * 1.0);
}

TEST(Transformer, KvBytesPerTokenUsesGqaGeometry) {
  const TransformerConfig c = Llama70B();
  // 2 (K and V) * kv_dim * 2 bytes * layers.
  const double expected = 2.0 * (8 * 128) * 2.0 * 80;
  EXPECT_DOUBLE_EQ(c.KvBytesPerToken(), expected);
  // GQA shrinks the cache 8x versus full multi-head attention.
  TransformerConfig mha = c;
  mha.num_kv_heads = mha.num_heads;
  EXPECT_DOUBLE_EQ(mha.KvBytesPerToken(), 8.0 * c.KvBytesPerToken());
}

TEST(Transformer, EncoderUsesClassicFfnAndBidirectional) {
  const TransformerConfig encoder = Encoder120M();
  EXPECT_EQ(encoder.kind, ModelKind::kEncoder);
  EXPECT_FALSE(encoder.gated_ffn);
  EXPECT_EQ(encoder.num_kv_heads, encoder.num_heads);
}

TEST(Transformer, ValidateCatchesBadGeometry) {
  TransformerConfig c = Llama8B();
  c.head_dim = 100;  // heads * head_dim != d_model
  EXPECT_THROW(c.Validate(), rago::ConfigError);

  c = Llama8B();
  c.num_kv_heads = c.num_heads + 1;
  EXPECT_THROW(c.Validate(), rago::ConfigError);

  c = Llama8B();
  c.num_layers = 0;
  EXPECT_THROW(c.Validate(), rago::ConfigError);

  c = Llama8B();
  c.vocab_size = 0;
  EXPECT_THROW(c.Validate(), rago::ConfigError);
}

TEST(Transformer, TiedEmbeddingsHalveEmbeddingParams) {
  TransformerConfig tied = Llama8B();
  TransformerConfig untied = Llama8B();
  tied.tied_embeddings = true;
  untied.tied_embeddings = false;
  const int64_t diff = untied.NumParams() - tied.NumParams();
  EXPECT_EQ(diff, static_cast<int64_t>(untied.vocab_size) * untied.d_model);
}

}  // namespace
}  // namespace rago::models
