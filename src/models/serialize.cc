#include "models/serialize.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "nn/linear.h"
#include "nn/sequential.h"
#include "store/env.h"

namespace vfl::models {

namespace {

constexpr char kLrHeader[] = "vflfia_lr_v1";
constexpr char kTreeHeader[] = "vflfia_tree_v1";
constexpr char kForestHeader[] = "vflfia_forest_v1";
constexpr char kMlpHeader[] = "vflfia_mlp_v1";

/// Hex-float rendering gives an exact double round-trip independent of
/// locale and printf precision settings.
std::string EncodeDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

core::StatusOr<double> DecodeDouble(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || token.empty()) {
    return core::Status::InvalidArgument("bad double token: " + token);
  }
  return value;
}

core::Status ExpectHeader(std::istream& in, const char* header) {
  std::string line;
  if (!std::getline(in, line)) {
    return core::Status::InvalidArgument("empty stream, expected header");
  }
  if (line != header) {
    return core::Status::InvalidArgument("bad header: got '" + line +
                                         "', expected '" + header + "'");
  }
  return core::Status::Ok();
}

template <typename T>
core::StatusOr<T> ReadValue(std::istream& in, const char* what) {
  T value{};
  if (!(in >> value)) {
    return core::Status::InvalidArgument(std::string("truncated stream at ") +
                                         what);
  }
  return value;
}

core::StatusOr<double> ReadDouble(std::istream& in, const char* what) {
  std::string token;
  if (!(in >> token)) {
    return core::Status::InvalidArgument(std::string("truncated stream at ") +
                                         what);
  }
  return DecodeDouble(token);
}

}  // namespace

core::Status SerializeLr(const LogisticRegression& model, std::ostream& out) {
  if (model.weights().size() == 0) {
    return core::Status::FailedPrecondition("serializing an untrained model");
  }
  out << kLrHeader << "\n"
      << model.num_features() << " " << model.num_classes() << "\n";
  const la::Matrix& w = model.weights();
  for (std::size_t r = 0; r < w.rows(); ++r) {
    for (std::size_t c = 0; c < w.cols(); ++c) {
      out << EncodeDouble(w(r, c)) << (c + 1 == w.cols() ? "\n" : " ");
    }
  }
  for (std::size_t c = 0; c < model.bias().size(); ++c) {
    out << EncodeDouble(model.bias()[c])
        << (c + 1 == model.bias().size() ? "\n" : " ");
  }
  if (!out) return core::Status::IoError("write failed");
  return core::Status::Ok();
}

core::StatusOr<LogisticRegression> DeserializeLr(std::istream& in) {
  VFL_RETURN_IF_ERROR(ExpectHeader(in, kLrHeader));
  VFL_ASSIGN_OR_RETURN(const std::size_t d,
                       ReadValue<std::size_t>(in, "feature count"));
  VFL_ASSIGN_OR_RETURN(const std::size_t c,
                       ReadValue<std::size_t>(in, "class count"));
  if (d == 0 || c < 2) {
    return core::Status::InvalidArgument("bad LR dimensions");
  }
  la::Matrix weights(d, c);
  for (std::size_t r = 0; r < d; ++r) {
    for (std::size_t col = 0; col < c; ++col) {
      VFL_ASSIGN_OR_RETURN(weights(r, col), ReadDouble(in, "weight"));
    }
  }
  std::vector<double> bias(c);
  for (std::size_t col = 0; col < c; ++col) {
    VFL_ASSIGN_OR_RETURN(bias[col], ReadDouble(in, "bias"));
  }
  LogisticRegression model;
  model.SetParameters(std::move(weights), std::move(bias));
  return model;
}

core::Status SerializeTree(const DecisionTree& tree, std::ostream& out) {
  if (tree.nodes().empty()) {
    return core::Status::FailedPrecondition("serializing an untrained tree");
  }
  out << kTreeHeader << "\n"
      << tree.num_features() << " " << tree.num_classes() << " "
      << tree.nodes().size() << "\n";
  for (const TreeNode& node : tree.nodes()) {
    if (!node.present) {
      out << "-\n";
    } else if (node.is_leaf) {
      out << "L " << node.label << "\n";
    } else {
      out << "I " << node.feature << " " << EncodeDouble(node.threshold)
          << "\n";
    }
  }
  if (!out) return core::Status::IoError("write failed");
  return core::Status::Ok();
}

core::StatusOr<DecisionTree> DeserializeTree(std::istream& in) {
  VFL_RETURN_IF_ERROR(ExpectHeader(in, kTreeHeader));
  VFL_ASSIGN_OR_RETURN(const std::size_t d,
                       ReadValue<std::size_t>(in, "feature count"));
  VFL_ASSIGN_OR_RETURN(const std::size_t c,
                       ReadValue<std::size_t>(in, "class count"));
  VFL_ASSIGN_OR_RETURN(const std::size_t num_nodes,
                       ReadValue<std::size_t>(in, "node count"));
  if (num_nodes == 0 || num_nodes > (1u << 26)) {
    return core::Status::InvalidArgument("implausible node count");
  }
  std::vector<TreeNode> nodes(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    std::string kind;
    if (!(in >> kind)) {
      return core::Status::InvalidArgument("truncated stream at node kind");
    }
    if (kind == "-") continue;
    nodes[i].present = true;
    if (kind == "L") {
      nodes[i].is_leaf = true;
      VFL_ASSIGN_OR_RETURN(nodes[i].label, ReadValue<int>(in, "leaf label"));
      if (nodes[i].label < 0 || static_cast<std::size_t>(nodes[i].label) >= c) {
        return core::Status::InvalidArgument("leaf label out of range");
      }
    } else if (kind == "I") {
      VFL_ASSIGN_OR_RETURN(nodes[i].feature,
                           ReadValue<int>(in, "node feature"));
      if (nodes[i].feature < 0 ||
          static_cast<std::size_t>(nodes[i].feature) >= d) {
        return core::Status::InvalidArgument("node feature out of range");
      }
      VFL_ASSIGN_OR_RETURN(nodes[i].threshold,
                           ReadDouble(in, "node threshold"));
    } else {
      return core::Status::InvalidArgument("unknown node kind: " + kind);
    }
  }
  // FromNodes CHECKs structural invariants; validate the cheap pieces here
  // so corrupted files surface as Status instead of aborting.
  std::size_t slots = 1, depth_slots = 1;
  while (slots < num_nodes) {
    slots = 2 * slots + 1;
    depth_slots = slots;
  }
  (void)depth_slots;
  if (slots != num_nodes) {
    return core::Status::InvalidArgument(
        "node count is not a full binary tree size");
  }
  if (!nodes[0].present) {
    return core::Status::InvalidArgument("root node absent");
  }
  for (std::size_t i = 0; i < num_nodes; ++i) {
    if (!nodes[i].present || nodes[i].is_leaf) continue;
    const std::size_t right = DecisionTree::RightChild(i);
    if (right >= num_nodes || !nodes[DecisionTree::LeftChild(i)].present ||
        !nodes[right].present) {
      return core::Status::InvalidArgument(
          "internal node missing children in stream");
    }
  }
  return DecisionTree::FromNodes(std::move(nodes), d, c);
}

core::Status SerializeForest(const RandomForest& forest, std::ostream& out) {
  if (forest.trees().empty()) {
    return core::Status::FailedPrecondition(
        "serializing an untrained forest");
  }
  out << kForestHeader << "\n" << forest.trees().size() << "\n";
  for (const DecisionTree& tree : forest.trees()) {
    VFL_RETURN_IF_ERROR(SerializeTree(tree, out));
  }
  return core::Status::Ok();
}

core::StatusOr<RandomForest> DeserializeForest(std::istream& in) {
  VFL_RETURN_IF_ERROR(ExpectHeader(in, kForestHeader));
  VFL_ASSIGN_OR_RETURN(const std::size_t num_trees,
                       ReadValue<std::size_t>(in, "tree count"));
  if (num_trees == 0 || num_trees > 100000) {
    return core::Status::InvalidArgument("implausible tree count");
  }
  // Consume the rest of the count line before per-tree getline headers.
  std::string rest_of_line;
  std::getline(in, rest_of_line);
  std::vector<DecisionTree> trees;
  trees.reserve(num_trees);
  for (std::size_t i = 0; i < num_trees; ++i) {
    VFL_ASSIGN_OR_RETURN(DecisionTree tree, DeserializeTree(in));
    trees.push_back(std::move(tree));
    if (i + 1 < num_trees) std::getline(in, rest_of_line);
  }
  return RandomForest::FromTrees(std::move(trees));
}

core::Status SerializeMlp(const MlpClassifier& model, std::ostream& out) {
  const nn::Sequential* network = model.network();
  if (network == nullptr) {
    return core::Status::FailedPrecondition("serializing an untrained MLP");
  }
  // Persist the Linear chain only: ReLU positions are implied (every layer
  // but the logits head) and dropout is train-time state.
  std::vector<const nn::Linear*> linears;
  for (std::size_t i = 0; i < network->num_layers(); ++i) {
    if (const auto* linear =
            dynamic_cast<const nn::Linear*>(network->layer(i))) {
      linears.push_back(linear);
    }
  }
  if (linears.empty()) {
    return core::Status::FailedPrecondition(
        "MLP network has no Linear layers");
  }
  out << kMlpHeader << "\n"
      << model.num_features() << " " << model.num_classes() << " "
      << linears.size() << "\n";
  for (const nn::Linear* linear : linears) {
    const la::Matrix& w = linear->weight().value;
    const la::Matrix& b = linear->bias().value;
    out << w.rows() << " " << w.cols() << "\n";
    for (std::size_t r = 0; r < w.rows(); ++r) {
      for (std::size_t c = 0; c < w.cols(); ++c) {
        out << EncodeDouble(w(r, c)) << (c + 1 == w.cols() ? "\n" : " ");
      }
    }
    for (std::size_t c = 0; c < b.cols(); ++c) {
      out << EncodeDouble(b(0, c)) << (c + 1 == b.cols() ? "\n" : " ");
    }
  }
  if (!out) return core::Status::IoError("write failed");
  return core::Status::Ok();
}

core::StatusOr<MlpClassifier> DeserializeMlp(std::istream& in) {
  VFL_RETURN_IF_ERROR(ExpectHeader(in, kMlpHeader));
  VFL_ASSIGN_OR_RETURN(const std::size_t d,
                       ReadValue<std::size_t>(in, "feature count"));
  VFL_ASSIGN_OR_RETURN(const std::size_t c,
                       ReadValue<std::size_t>(in, "class count"));
  VFL_ASSIGN_OR_RETURN(const std::size_t num_layers,
                       ReadValue<std::size_t>(in, "layer count"));
  if (d == 0 || d > (1u << 20) || c < 2 || c > (1u << 20) ||
      num_layers == 0 || num_layers > 1024) {
    return core::Status::InvalidArgument("bad MLP dimensions");
  }
  std::vector<la::Matrix> weights;
  std::vector<std::vector<double>> biases;
  weights.reserve(num_layers);
  biases.reserve(num_layers);
  std::size_t expected_in = d;
  for (std::size_t layer = 0; layer < num_layers; ++layer) {
    VFL_ASSIGN_OR_RETURN(const std::size_t rows,
                         ReadValue<std::size_t>(in, "layer rows"));
    VFL_ASSIGN_OR_RETURN(const std::size_t cols,
                         ReadValue<std::size_t>(in, "layer cols"));
    if (rows != expected_in || cols == 0 || cols > (1u << 20)) {
      return core::Status::InvalidArgument(
          "layer " + std::to_string(layer) + " shape breaks the chain");
    }
    la::Matrix w(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t col = 0; col < cols; ++col) {
        VFL_ASSIGN_OR_RETURN(w(r, col), ReadDouble(in, "layer weight"));
      }
    }
    std::vector<double> b(cols);
    for (std::size_t col = 0; col < cols; ++col) {
      VFL_ASSIGN_OR_RETURN(b[col], ReadDouble(in, "layer bias"));
    }
    weights.push_back(std::move(w));
    biases.push_back(std::move(b));
    expected_in = cols;
  }
  if (expected_in != c) {
    return core::Status::InvalidArgument(
        "logits head width does not match the class count");
  }
  MlpClassifier model;
  model.SetParameters(std::move(weights), std::move(biases));
  return model;
}

namespace {

template <typename SerializeFn, typename ModelT>
core::Status SaveToFile(SerializeFn serialize, const ModelT& model,
                        const std::string& path) {
  // Atomic commit: serialize to memory, then temp-file + fsync + rename. A
  // crash mid-save leaves the previous file (or nothing), never a torn model.
  std::ostringstream out;
  VFL_RETURN_IF_ERROR(serialize(model, out));
  return store::AtomicWriteFile(store::Env::Posix(), path, out.str());
}

template <typename DeserializeFn>
auto LoadFromFile(DeserializeFn deserialize, const std::string& path)
    -> decltype(deserialize(std::declval<std::istream&>())) {
  std::ifstream in(path);
  if (!in) return core::Status::IoError("cannot open: " + path);
  return deserialize(in);
}

}  // namespace

core::Status SaveLr(const LogisticRegression& model, const std::string& path) {
  return SaveToFile(SerializeLr, model, path);
}
core::StatusOr<LogisticRegression> LoadLr(const std::string& path) {
  return LoadFromFile(DeserializeLr, path);
}
core::Status SaveTree(const DecisionTree& tree, const std::string& path) {
  return SaveToFile(SerializeTree, tree, path);
}
core::StatusOr<DecisionTree> LoadTree(const std::string& path) {
  return LoadFromFile(DeserializeTree, path);
}
core::Status SaveForest(const RandomForest& forest, const std::string& path) {
  return SaveToFile(SerializeForest, forest, path);
}
core::StatusOr<RandomForest> LoadForest(const std::string& path) {
  return LoadFromFile(DeserializeForest, path);
}
core::Status SaveMlp(const MlpClassifier& model, const std::string& path) {
  return SaveToFile(SerializeMlp, model, path);
}
core::StatusOr<MlpClassifier> LoadMlp(const std::string& path) {
  return LoadFromFile(DeserializeMlp, path);
}

}  // namespace vfl::models
