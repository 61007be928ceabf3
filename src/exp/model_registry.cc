#include "exp/model_registry.h"

#include <string>
#include <utility>

#include "models/gbdt.h"
#include "models/mlp.h"

namespace vfl::exp {

namespace {

/// Unwraps a StatusOr getter expression or propagates its error.
#define VFL_EXP_GET(lhs, expr) VFL_ASSIGN_OR_RETURN(lhs, expr)

/// Deepest tree the registry trains. A depth-D tree takes 2^(D+1) - 1 node
/// slots, and 25 is the largest D within DeserializeTree's 2^26-node cap, so
/// every tree that can be trained can also be saved and loaded.
constexpr std::size_t kMaxTreeDepth = 25;

core::Status CheckTreeDepth(const char* model, std::size_t depth) {
  if (depth <= kMaxTreeDepth) return core::Status::Ok();
  return core::Status::InvalidArgument(
      std::string("model '") + model + "': depth must be <= " +
      std::to_string(kMaxTreeDepth));
}

core::StatusOr<ModelHandle> TrainLr(const data::Dataset& train,
                                    const ConfigMap& config,
                                    const ScaleConfig& scale,
                                    std::uint64_t seed) {
  models::LrConfig lr_config = MakeLrConfig(scale, seed);
  VFL_EXP_GET(lr_config.epochs, config.GetSize("epochs", lr_config.epochs));
  VFL_EXP_GET(lr_config.batch_size,
              config.GetSize("batch", lr_config.batch_size));
  VFL_EXP_GET(lr_config.learning_rate,
              config.GetDouble("learning_rate", lr_config.learning_rate));
  VFL_EXP_GET(lr_config.weight_decay,
              config.GetDouble("weight_decay", lr_config.weight_decay));
  VFL_EXP_GET(lr_config.seed, config.GetUint64("seed", lr_config.seed));
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("model 'lr'"));

  auto model = std::make_unique<models::LogisticRegression>();
  model->Fit(train, lr_config);
  ModelHandle handle;
  handle.kind = "lr";
  handle.differentiable = model.get();
  handle.lr = model.get();
  handle.model = std::move(model);
  return handle;
}

core::StatusOr<ModelHandle> TrainMlp(const data::Dataset& train,
                                     const ConfigMap& config,
                                     const ScaleConfig& scale,
                                     std::uint64_t seed) {
  models::MlpConfig mlp_config = MakeMlpConfig(scale, seed);
  VFL_EXP_GET(mlp_config.hidden_sizes,
              config.GetSizeList("hidden", mlp_config.hidden_sizes));
  VFL_EXP_GET(mlp_config.dropout_rate,
              config.GetDouble("dropout", mlp_config.dropout_rate));
  VFL_EXP_GET(mlp_config.train.epochs,
              config.GetSize("epochs", mlp_config.train.epochs));
  VFL_EXP_GET(mlp_config.train.batch_size,
              config.GetSize("batch", mlp_config.train.batch_size));
  VFL_EXP_GET(mlp_config.train.learning_rate,
              config.GetDouble("learning_rate",
                               mlp_config.train.learning_rate));
  VFL_EXP_GET(mlp_config.train.seed,
              config.GetUint64("seed", mlp_config.train.seed));
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("model 'mlp'"));
  if (mlp_config.dropout_rate < 0.0 || mlp_config.dropout_rate >= 1.0) {
    return core::Status::InvalidArgument(
        "model 'mlp': dropout must be in [0, 1)");
  }

  auto model = std::make_unique<models::MlpClassifier>();
  model->Fit(train, mlp_config);
  ModelHandle handle;
  handle.kind = "mlp";
  handle.differentiable = model.get();
  handle.model = std::move(model);
  return handle;
}

core::StatusOr<ModelHandle> TrainDt(const data::Dataset& train,
                                    const ConfigMap& config,
                                    const ScaleConfig& scale,
                                    std::uint64_t seed) {
  models::DtConfig dt_config = MakeDtConfig(scale, seed);
  VFL_EXP_GET(dt_config.max_depth, config.GetSize("depth", dt_config.max_depth));
  VFL_EXP_GET(dt_config.min_samples_leaf,
              config.GetSize("min_leaf", dt_config.min_samples_leaf));
  VFL_EXP_GET(dt_config.seed, config.GetUint64("seed", dt_config.seed));
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("model 'dt'"));
  VFL_RETURN_IF_ERROR(CheckTreeDepth("dt", dt_config.max_depth));

  auto model = std::make_unique<models::DecisionTree>();
  model->Fit(train, dt_config);
  ModelHandle handle;
  handle.kind = "dt";
  handle.tree = model.get();
  handle.model = std::move(model);
  return handle;
}

core::StatusOr<ModelHandle> TrainRf(const data::Dataset& train,
                                    const ConfigMap& config,
                                    const ScaleConfig& scale,
                                    std::uint64_t seed) {
  models::RfConfig rf_config = MakeRfConfig(scale, seed);
  VFL_EXP_GET(rf_config.num_trees, config.GetSize("trees", rf_config.num_trees));
  VFL_EXP_GET(rf_config.tree.max_depth,
              config.GetSize("depth", rf_config.tree.max_depth));
  VFL_EXP_GET(rf_config.seed, config.GetUint64("seed", rf_config.seed));
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("model 'rf'"));
  VFL_RETURN_IF_ERROR(CheckTreeDepth("rf", rf_config.tree.max_depth));
  if (rf_config.num_trees == 0) {
    return core::Status::InvalidArgument("model 'rf': trees must be >= 1");
  }

  auto model = std::make_unique<models::RandomForest>();
  model->Fit(train, rf_config);
  ModelHandle handle;
  handle.kind = "rf";
  handle.forest = model.get();
  handle.model = std::move(model);
  return handle;
}

core::StatusOr<ModelHandle> TrainGbdt(const data::Dataset& train,
                                      const ConfigMap& config,
                                      const ScaleConfig& scale,
                                      std::uint64_t seed) {
  (void)seed;  // GBDT training is deterministic (exact greedy splits).
  models::GbdtConfig gbdt_config = MakeGbdtConfig(scale);
  VFL_EXP_GET(gbdt_config.num_rounds,
              config.GetSize("rounds", gbdt_config.num_rounds));
  VFL_EXP_GET(gbdt_config.max_depth,
              config.GetSize("depth", gbdt_config.max_depth));
  VFL_EXP_GET(gbdt_config.learning_rate,
              config.GetDouble("learning_rate", gbdt_config.learning_rate));
  VFL_RETURN_IF_ERROR(config.ExpectConsumed("model 'gbdt'"));
  VFL_RETURN_IF_ERROR(CheckTreeDepth("gbdt", gbdt_config.max_depth));
  if (gbdt_config.num_rounds == 0) {
    return core::Status::InvalidArgument("model 'gbdt': rounds must be >= 1");
  }

  auto model = std::make_unique<models::Gbdt>();
  model->Fit(train, gbdt_config);
  ModelHandle handle;
  handle.kind = "gbdt";
  handle.model = std::move(model);
  return handle;
}

#undef VFL_EXP_GET

ModelRegistry BuildModelRegistry() {
  ModelRegistry registry("model");
  CHECK(registry
            .Register({"lr", "multinomial logistic regression (Sec. II-A)",
                       "epochs=N, batch=N, learning_rate=F, weight_decay=F, "
                       "seed=N",
                       TrainLr})
            .ok());
  CHECK(registry
            .Register({"mlp", "feed-forward neural network classifier",
                       "hidden=AxBxC, dropout=F, epochs=N, batch=N, "
                       "learning_rate=F, seed=N",
                       TrainMlp})
            .ok());
  CHECK(registry
            .Register({"nn", "alias of mlp",
                       "hidden=AxBxC, dropout=F, epochs=N, batch=N, "
                       "learning_rate=F, seed=N",
                       TrainMlp})
            .ok());
  CHECK(registry
            .Register({"dt", "CART decision tree (one-hot confidences)",
                       "depth=N, min_leaf=N, seed=N", TrainDt})
            .ok());
  CHECK(registry
            .Register({"rf", "random forest (vote-fraction confidences)",
                       "trees=N, depth=N, seed=N", TrainRf})
            .ok());
  CHECK(registry
            .Register({"gbdt",
                       "gradient-boosted trees (SecureBoost family)",
                       "rounds=N, depth=N, learning_rate=F", TrainGbdt})
            .ok());
  return registry;
}

}  // namespace

const ModelRegistry& GlobalModelRegistry() {
  static const ModelRegistry registry = BuildModelRegistry();
  return registry;
}

ModelHandle CloneHandle(const ModelHandle& handle) {
  ModelHandle clone;
  clone.kind = handle.kind;
  if (handle.model == nullptr) return clone;
  clone.model = handle.model->Clone();
  CHECK(clone.model != nullptr)
      << "model '" << handle.kind << "' returned a null Clone()";
  clone.differentiable =
      dynamic_cast<models::DifferentiableModel*>(clone.model.get());
  clone.lr = dynamic_cast<const models::LogisticRegression*>(clone.model.get());
  clone.tree = dynamic_cast<const models::DecisionTree*>(clone.model.get());
  clone.forest = dynamic_cast<const models::RandomForest*>(clone.model.get());
  return clone;
}

core::StatusOr<ModelHandle> TrainModel(const std::string& kind,
                                       const data::Dataset& train,
                                       const ConfigMap& config,
                                       const ScaleConfig& scale,
                                       std::uint64_t seed) {
  VFL_ASSIGN_OR_RETURN(const ModelRegistry::Entry* entry,
                       GlobalModelRegistry().Find(kind));
  return entry->factory(train, config, scale, seed);
}

}  // namespace vfl::exp
