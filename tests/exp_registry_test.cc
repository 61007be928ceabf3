#include "exp/registry.h"

#include <gtest/gtest.h>

#include <string>

#include "data/synthetic.h"
#include "exp/attack_registry.h"
#include "exp/config_map.h"
#include "exp/defense_registry.h"
#include "exp/model_registry.h"

namespace vfl::exp {
namespace {

using core::StatusCode;

using IntFactory = int (*)();

TEST(RegistryTest, RegisterAndFind) {
  Registry<IntFactory> registry("widget");
  ASSERT_TRUE(registry.Register({"a", "first", "", nullptr}).ok());
  ASSERT_TRUE(registry.Register({"b", "second", "", nullptr}).ok());
  const auto found = registry.Find("b");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->summary, "second");
}

TEST(RegistryTest, UnknownNameIsNotFoundAndListsAlternatives) {
  Registry<IntFactory> registry("widget");
  ASSERT_TRUE(registry.Register({"alpha", "", "", nullptr}).ok());
  const auto missing = registry.Find("beta");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("alpha"), std::string::npos);
  EXPECT_NE(missing.status().message().find("widget"), std::string::npos);
}

TEST(RegistryTest, DuplicateRegistrationIsAlreadyExists) {
  Registry<IntFactory> registry("widget");
  ASSERT_TRUE(registry.Register({"a", "", "", nullptr}).ok());
  const core::Status dup = registry.Register({"a", "", "", nullptr});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(RegistryTest, EmptyNameRejected) {
  Registry<IntFactory> registry("widget");
  EXPECT_EQ(registry.Register({"", "", "", nullptr}).code(),
            StatusCode::kInvalidArgument);
}

TEST(GlobalRegistriesTest, BuiltInsAreRegistered) {
  for (const char* name : {"lr", "mlp", "nn", "dt", "rf", "gbdt"}) {
    EXPECT_TRUE(GlobalModelRegistry().Find(name).ok()) << name;
  }
  for (const char* name : {"esa", "grna", "pra", "pra_random",
                           "random_uniform", "random_gauss", "map"}) {
    EXPECT_TRUE(GlobalAttackRegistry().Find(name).ok()) << name;
  }
  for (const char* name : {"rounding", "noise", "dropout", "none"}) {
    EXPECT_TRUE(GlobalDefenseRegistry().Find(name).ok()) << name;
  }
}

TEST(GlobalRegistriesTest, UnknownKindsAreNotFound) {
  const ScaleConfig scale;
  EXPECT_EQ(MakeAttack("nope", {}, scale).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(MakeDefense("nope", {}).status().code(), StatusCode::kNotFound);
}

TEST(DefenseRegistryTest, RoundingBuildsOutputDefense) {
  const auto plan = MakeDefense("rounding", ConfigMap::MustParse("digits=2"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, "rounding");
  EXPECT_NE(plan->label.find("digits=2"), std::string::npos);
  ASSERT_TRUE(plan->make_output != nullptr);
  EXPECT_NE(plan->make_output(1), nullptr);
  EXPECT_DOUBLE_EQ(plan->dropout_rate, 0.0);
}

TEST(DefenseRegistryTest, RoundingRejectsBadDigits) {
  EXPECT_EQ(MakeDefense("rounding", ConfigMap::MustParse("digits=0"))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DefenseRegistryTest, DropoutIsTrainTime) {
  const auto plan = MakeDefense("dropout", ConfigMap::MustParse("rate=0.3"));
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->dropout_rate, 0.3);
  EXPECT_TRUE(plan->make_output == nullptr);
}

TEST(DefenseRegistryTest, UnknownKeyRejected) {
  EXPECT_EQ(
      MakeDefense("noise", ConfigMap::MustParse("sigma=0.1")).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(ModelRegistryTest, TrainsLrAndExposesTypedViews) {
  const ScaleConfig scale;
  data::ClassificationSpec spec;
  spec.num_samples = 120;
  spec.num_features = 6;
  spec.num_informative = 3;
  spec.num_redundant = 2;
  const data::Dataset dataset = data::MakeClassification(spec);

  const auto handle =
      TrainModel("lr", dataset, ConfigMap::MustParse("epochs=2"), scale, 1);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_EQ(handle->kind, "lr");
  EXPECT_NE(handle->model, nullptr);
  EXPECT_NE(handle->lr, nullptr);
  EXPECT_NE(handle->differentiable, nullptr);
  EXPECT_EQ(handle->tree, nullptr);
  EXPECT_EQ(handle->model->num_features(), dataset.num_features());
}

TEST(ModelRegistryTest, UnknownConfigKeyRejected) {
  const ScaleConfig scale;
  data::ClassificationSpec spec;
  spec.num_samples = 60;
  spec.num_features = 5;
  spec.num_informative = 3;
  spec.num_redundant = 1;
  const data::Dataset dataset = data::MakeClassification(spec);

  const auto handle = TrainModel(
      "lr", dataset, ConfigMap::MustParse("dropout=0.5"), scale, 1);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(handle.status().message().find("dropout"), std::string::npos);
}

TEST(ModelRegistryTest, OutOfRangeTreeConfigRejected) {
  const ScaleConfig scale;
  data::ClassificationSpec spec;
  spec.num_samples = 60;
  spec.num_features = 5;
  spec.num_informative = 3;
  spec.num_redundant = 1;
  const data::Dataset dataset = data::MakeClassification(spec);

  // Depths past 25 would size the node array past what a saved tree may
  // hold (at 63 and up the slot count overflows); zero trees or rounds
  // leave nothing to train.
  const struct {
    const char* kind;
    const char* config;
    const char* key;
  } cases[] = {
      {"dt", "depth=26", "depth"},    {"dt", "depth=64", "depth"},
      {"rf", "depth=26", "depth"},    {"rf", "trees=0", "trees"},
      {"gbdt", "depth=26", "depth"},  {"gbdt", "rounds=0", "rounds"},
  };
  for (const auto& c : cases) {
    const auto handle = TrainModel(c.kind, dataset,
                                   ConfigMap::MustParse(c.config), scale, 1);
    ASSERT_FALSE(handle.ok()) << c.kind << ":" << c.config;
    EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument)
        << c.kind << ":" << c.config;
    EXPECT_NE(handle.status().message().find(c.key), std::string::npos)
        << handle.status().ToString();
  }
  EXPECT_TRUE(
      TrainModel("dt", dataset, ConfigMap::MustParse("depth=3"), scale, 1)
          .ok());
}

TEST(AttackRegistryTest, BadGrnaConfigRejected) {
  const ScaleConfig scale;
  EXPECT_EQ(MakeAttack("grna", ConfigMap::MustParse("epochs=abc"), scale)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeAttack("grna", ConfigMap::MustParse("mystery=1"), scale)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(AttackRegistryTest, DefaultLabels) {
  const ScaleConfig scale;
  const auto esa = MakeAttack("esa", {}, scale);
  ASSERT_TRUE(esa.ok());
  EXPECT_EQ((*esa)->DefaultLabel(), "ESA");
  const auto rg = MakeAttack("random_gauss", {}, scale);
  ASSERT_TRUE(rg.ok());
  EXPECT_EQ((*rg)->DefaultLabel(), "RG(Gaussian)");
}

TEST(DefenseChainTest, ParsesStagesWithShortAliases) {
  const auto chain = ParseDefenseChain("round:d=2,noise:sigma=0.1,seed=7");
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_EQ((*chain)[0].first, "rounding");
  EXPECT_EQ((*chain)[0].second.ToString(), "digits=2");
  EXPECT_EQ((*chain)[1].first, "noise");
  // "seed=7" extends the noise stage; "sigma" normalized to "stddev".
  EXPECT_EQ((*chain)[1].second.ToString(), "seed=7,stddev=0.1");

  // Every parsed stage must build a real DefensePlan.
  for (const auto& [kind, config] : *chain) {
    EXPECT_TRUE(MakeDefense(kind, config).ok()) << kind;
  }
}

TEST(DefenseChainTest, BareKindAndFullNamesWork) {
  const auto chain = ParseDefenseChain("preprocess,rounding:digits=3");
  ASSERT_TRUE(chain.ok());
  ASSERT_EQ(chain->size(), 2u);
  EXPECT_EQ((*chain)[0].first, "preprocess");
  EXPECT_TRUE((*chain)[0].second.empty());
  EXPECT_EQ((*chain)[1].first, "rounding");
}

TEST(DefenseChainTest, RejectsMalformedChains) {
  // Unknown kind, leading config key, empty stage, dangling key.
  EXPECT_EQ(ParseDefenseChain("blur:r=3").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ParseDefenseChain("d=2,round").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDefenseChain("round:d=2,,noise").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDefenseChain("round:digits").status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vfl::exp
