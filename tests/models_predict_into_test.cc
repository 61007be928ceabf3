// PredictProbaInto, the one forward virtual every model implements: it must
// fill a caller's buffer, whatever shape and contents the buffer held, with
// exactly the bits of the allocating PredictProba.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "la/matrix_ops.h"
#include "models/decision_tree.h"
#include "models/gbdt.h"
#include "models/logistic_regression.h"
#include "models/mlp.h"
#include "models/random_forest.h"
#include "models/rf_surrogate.h"
#include "nn/activation.h"

namespace vfl::models {
namespace {

data::Dataset Data(std::size_t classes) {
  data::ClassificationSpec spec;
  spec.num_samples = 200;
  spec.num_features = 7;
  spec.num_classes = classes;
  spec.num_informative = 4;
  spec.num_redundant = 2;
  spec.seed = 5;
  return data::MakeClassification(spec);
}

struct Fitted {
  std::string name;
  std::unique_ptr<Model> model;
};

std::vector<Fitted> FitEveryFamily() {
  const data::Dataset three = Data(3);
  std::vector<Fitted> fitted;

  auto lr = std::make_unique<LogisticRegression>();
  LrConfig lr_config;
  lr_config.epochs = 5;
  lr->Fit(three, lr_config);
  fitted.push_back({"lr", std::move(lr)});

  auto mlp = std::make_unique<MlpClassifier>();
  MlpConfig mlp_config;
  mlp_config.hidden_sizes = {16, 8};
  mlp_config.train.epochs = 2;
  mlp->Fit(three, mlp_config);
  fitted.push_back({"mlp", std::move(mlp)});

  auto dt = std::make_unique<DecisionTree>();
  dt->Fit(three);
  fitted.push_back({"dt", std::move(dt)});

  RfConfig rf_config;
  rf_config.num_trees = 8;
  auto rf = std::make_unique<RandomForest>();
  rf->Fit(three, rf_config);

  auto surrogate = std::make_unique<RfSurrogate>();
  SurrogateConfig surrogate_config;
  surrogate_config.num_dummy_samples = 256;
  surrogate_config.hidden_sizes = {16};
  surrogate_config.train.epochs = 1;
  surrogate->Distill(*rf, surrogate_config);
  fitted.push_back({"rf", std::move(rf)});
  fitted.push_back({"rf_surrogate", std::move(surrogate)});

  GbdtConfig gbdt_config;
  gbdt_config.num_rounds = 5;
  auto gbdt = std::make_unique<Gbdt>();
  gbdt->Fit(three, gbdt_config);
  fitted.push_back({"gbdt", std::move(gbdt)});
  // The binary path writes both columns from one sigmoid score.
  auto gbdt_binary = std::make_unique<Gbdt>();
  gbdt_binary->Fit(Data(2), gbdt_config);
  fitted.push_back({"gbdt_binary", std::move(gbdt_binary)});
  return fitted;
}

TEST(PredictProbaIntoTest, FillsAStaleBufferWithPredictProbasBits) {
  const std::vector<Fitted> fitted = FitEveryFamily();
  const data::Dataset queries = Data(3);
  for (const Fitted& f : fitted) {
    for (const std::size_t rows : {1u, 7u, 64u}) {
      const la::Matrix x = queries.x.SliceRows(10, 10 + rows);
      const la::Matrix want = f.model->PredictProba(x);
      ASSERT_EQ(want.rows(), rows);
      ASSERT_EQ(want.cols(), f.model->num_classes());
      // Larger, then smaller, than the result, with non-zero contents.
      for (la::Matrix out : {la::Matrix(70, 9, -3.5), la::Matrix(1, 1, 8.0)}) {
        f.model->PredictProbaInto(x, &out);
        EXPECT_EQ(out, want) << f.name << " on " << rows << " rows";
      }
    }
  }
}

TEST(PredictProbaIntoTest, LogisticRegressionIsTheSoftmaxOfItsLogits) {
  LogisticRegression lr;
  LrConfig config;
  config.epochs = 5;
  lr.Fit(Data(3), config);
  const la::Matrix x = Data(3).x.SliceRows(0, 64);
  // The pre-fused computation: product, bias, then a separate softmax.
  const la::Matrix want = nn::SoftmaxRows(
      la::AddRowBroadcast(la::MatMul(x, lr.weights()), lr.bias()));
  la::Matrix out(2, 2, 1.0);
  lr.PredictProbaInto(x, &out);
  EXPECT_EQ(out, want);
}

}  // namespace
}  // namespace vfl::models
