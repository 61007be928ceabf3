#ifndef VFLFIA_MODELS_SERIALIZE_H_
#define VFLFIA_MODELS_SERIALIZE_H_

#include <iosfwd>
#include <string>

#include "core/status.h"
#include "models/decision_tree.h"
#include "models/logistic_regression.h"
#include "models/mlp.h"
#include "models/random_forest.h"

namespace vfl::models {

/// Text serialization for the released VFL models. In the paper's threat
/// model the trained model is handed to every party in plaintext
/// (Sec. III-B); these helpers are the hand-over format. The encoding is a
/// line-oriented, versioned, locale-independent text format (full double
/// round-trip via hex-float).
///
/// Streams are the primitive; file helpers wrap them.

/// Writes/reads logistic regression parameters (weights d x c + bias).
core::Status SerializeLr(const LogisticRegression& model, std::ostream& out);
core::StatusOr<LogisticRegression> DeserializeLr(std::istream& in);

/// Writes/reads a decision tree (full binary node array).
core::Status SerializeTree(const DecisionTree& tree, std::ostream& out);
core::StatusOr<DecisionTree> DeserializeTree(std::istream& in);

/// Writes/reads a random forest (header + member trees).
core::Status SerializeForest(const RandomForest& forest, std::ostream& out);
core::StatusOr<RandomForest> DeserializeForest(std::istream& in);

/// Writes/reads an MLP classifier's inference network: the Linear layer
/// chain (hidden ReLU stack + logits head). Dropout layers are train-time
/// only and do not persist; the reloaded model predicts bit-identically.
core::Status SerializeMlp(const MlpClassifier& model, std::ostream& out);
core::StatusOr<MlpClassifier> DeserializeMlp(std::istream& in);

/// File wrappers; the format is detected from the header line on load.
/// Saves commit atomically (write temp, fsync, rename) — a crash mid-save
/// never leaves a torn model file behind. For versioned storage with
/// monotonic generation ids, see store::ModelBucket.
core::Status SaveLr(const LogisticRegression& model, const std::string& path);
core::StatusOr<LogisticRegression> LoadLr(const std::string& path);
core::Status SaveTree(const DecisionTree& tree, const std::string& path);
core::StatusOr<DecisionTree> LoadTree(const std::string& path);
core::Status SaveForest(const RandomForest& forest, const std::string& path);
core::StatusOr<RandomForest> LoadForest(const std::string& path);
core::Status SaveMlp(const MlpClassifier& model, const std::string& path);
core::StatusOr<MlpClassifier> LoadMlp(const std::string& path);

}  // namespace vfl::models

#endif  // VFLFIA_MODELS_SERIALIZE_H_
