#include "models/rf_surrogate.h"

#include "core/rng.h"
#include "la/matrix_ops.h"
#include "nn/activation.h"
#include "nn/linear.h"
#include "nn/loss.h"

namespace vfl::models {

namespace {

la::Matrix UniformDummySamples(std::size_t n, std::size_t d, core::Rng& rng) {
  la::Matrix x(n, d);
  double* data = x.data();
  for (std::size_t i = 0; i < x.size(); ++i) data[i] = rng.Uniform();
  return x;
}

}  // namespace

void RfSurrogate::Distill(const Model& teacher,
                          const SurrogateConfig& config) {
  core::Rng rng(config.train.seed);
  const la::Matrix dummy_x = UniformDummySamples(
      config.num_dummy_samples, teacher.num_features(), rng);
  FitOnDummies(teacher, dummy_x, config);
}

void RfSurrogate::DistillConditioned(
    const Model& teacher, const std::vector<std::size_t>& adv_columns,
    const la::Matrix& x_adv_samples, const SurrogateConfig& config) {
  CHECK_GT(x_adv_samples.rows(), 0u);
  CHECK_EQ(x_adv_samples.cols(), adv_columns.size());
  core::Rng rng(config.train.seed);
  la::Matrix dummy_x = UniformDummySamples(config.num_dummy_samples,
                                           teacher.num_features(), rng);
  for (std::size_t r = 0; r < dummy_x.rows(); ++r) {
    const std::size_t source = rng.UniformInt(x_adv_samples.rows());
    const double* adv_row = x_adv_samples.RowPtr(source);
    double* dst = dummy_x.RowPtr(r);
    for (std::size_t j = 0; j < adv_columns.size(); ++j) {
      CHECK_LT(adv_columns[j], dummy_x.cols());
      dst[adv_columns[j]] = adv_row[j];
    }
  }
  FitOnDummies(teacher, dummy_x, config);
}

void RfSurrogate::FitOnDummies(const Model& teacher,
                               const la::Matrix& dummy_x,
                               const SurrogateConfig& config) {
  CHECK_GT(config.num_dummy_samples, 0u);
  num_features_ = teacher.num_features();
  num_classes_ = teacher.num_classes();

  core::Rng rng(config.train.seed + 1);
  const la::Matrix dummy_v = teacher.PredictProba(dummy_x);

  network_ = std::make_unique<nn::Sequential>();
  std::size_t width = num_features_;
  for (const std::size_t hidden : config.hidden_sizes) {
    network_->Emplace<nn::Linear>(width, hidden, rng, nn::Init::kHe);
    network_->Emplace<nn::Relu>();
    width = hidden;
  }
  network_->Emplace<nn::Linear>(width, num_classes_, rng, nn::Init::kXavier);
  network_->Emplace<nn::Softmax>();

  training_history_ =
      nn::TrainMseRegressor(*network_, dummy_x, dummy_v, config.train);
  network_->SetTraining(false);
}

void RfSurrogate::PredictProbaInto(const la::Matrix& x,
                                   la::Matrix* out) const {
  CHECK(network_ != nullptr) << "PredictProba before Fit";
  CHECK_EQ(x.cols(), num_features_);
  // Cache-free const forward: safe under concurrent callers.
  *out = network_->InferenceForward(x);
}

std::unique_ptr<Model> RfSurrogate::Clone() const {
  auto clone = std::make_unique<RfSurrogate>();
  if (network_ != nullptr) {
    nn::ModulePtr net = network_->Clone();
    clone->network_.reset(static_cast<nn::Sequential*>(net.release()));
  }
  clone->num_features_ = num_features_;
  clone->num_classes_ = num_classes_;
  clone->training_history_ = training_history_;
  return clone;
}

const la::Matrix& RfSurrogate::BeginForwardDiff(const la::Matrix& x) {
  CHECK(network_ != nullptr) << "ForwardDiff before Fit";
  return network_->BeginForward(x);
}

void RfSurrogate::ForwardDiffRows(const la::Matrix& x, std::size_t r0,
                                  std::size_t r1) {
  network_->ForwardRows(x, r0, r1);
}

const la::Matrix& RfSurrogate::BeginBackwardToInput(
    const la::Matrix& grad_proba) {
  CHECK(network_ != nullptr) << "BackwardToInput before ForwardDiff";
  return network_->BeginBackward(grad_proba);
}

void RfSurrogate::BackwardToInputRows(const la::Matrix& grad_proba,
                                      std::size_t r0, std::size_t r1) {
  network_->BackwardRows(grad_proba, r0, r1);
}

double RfSurrogate::FidelityMse(const Model& teacher,
                                std::size_t num_samples,
                                std::uint64_t seed) const {
  CHECK(network_ != nullptr) << "FidelityMse before Fit";
  core::Rng rng(seed);
  const la::Matrix x = UniformDummySamples(num_samples, num_features_, rng);
  const la::Matrix surrogate_v = PredictProba(x);
  const la::Matrix teacher_v = teacher.PredictProba(x);
  return nn::MseLoss(surrogate_v, teacher_v).value;
}

}  // namespace vfl::models
