#ifndef VFLFIA_DATA_SYNTHETIC_H_
#define VFLFIA_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "data/dataset.h"

namespace vfl::data {

/// Parameters for the synthetic classification generator (modeled on
/// sklearn.datasets.make_classification, which the paper uses for its two
/// synthetic datasets, Sec. VI-A).
///
/// Feature layout before the optional column shuffle:
///   [num_informative | num_redundant | rest = noise]
/// Informative features are unit-variance Gaussian scatter around per-class
/// hypercube centroids; redundant features are random linear combinations of
/// the informative block plus Gaussian noise of stddev 0.1 (the mix is what
/// creates the cross-feature correlation the GRNA attack learns); noise
/// features are independent Gaussians.
struct ClassificationSpec {
  std::size_t num_samples = 1000;
  std::size_t num_features = 20;
  std::size_t num_classes = 2;
  std::size_t num_informative = 8;
  std::size_t num_redundant = 8;
  /// Distance scale between class centroids; larger = more separable.
  double class_sep = 1.0;
  /// Fraction of labels flipped uniformly at random.
  double label_noise = 0.0;
  /// Shuffle column order so informative/redundant/noise features interleave
  /// across the vertical party split.
  bool shuffle_columns = true;
  std::uint64_t seed = 42;
  std::string name = "synthetic";
};

/// Generates a dataset per `spec`. Features are left on their natural scale;
/// most callers follow with MinMaxNormalizer (the paper normalizes all
/// features into (0,1)). CHECK-fails if informative+redundant exceeds the
/// feature count or classes exceed 2^informative centroid capacity.
Dataset MakeClassification(const ClassificationSpec& spec);

/// Simulated stand-ins for the paper's four UCI datasets (Table II). The UCI
/// files are not redistributable here, so each function generates a synthetic
/// dataset with the paper-reported shape (samples x features x classes) and a
/// correlated feature mix, then min–max normalizes into (0,1) exactly as the
/// paper does. Pass a smaller `num_samples` to subsample the workload
/// (0 = paper-reported size).
Dataset MakeBankMarketingSim(std::size_t num_samples = 0,
                             std::uint64_t seed = 42);
/// Credit card default dataset stand-in: 30000 x 23, 2 classes.
Dataset MakeCreditCardSim(std::size_t num_samples = 0,
                          std::uint64_t seed = 42);
/// Sensorless drive diagnosis stand-in: 58509 x 48, 11 classes.
Dataset MakeDriveDiagnosisSim(std::size_t num_samples = 0,
                              std::uint64_t seed = 42);
/// Online news popularity stand-in: 39797 x 59, 5 classes.
Dataset MakeNewsPopularitySim(std::size_t num_samples = 0,
                              std::uint64_t seed = 42);
/// Paper's synthetic dataset 1: 100000 x 25, 10 classes.
Dataset MakeSynthetic1(std::size_t num_samples = 0, std::uint64_t seed = 42);
/// Paper's synthetic dataset 2: 100000 x 50, 5 classes.
Dataset MakeSynthetic2(std::size_t num_samples = 0, std::uint64_t seed = 42);

/// Looks up one of the six evaluation datasets by name: "bank", "credit",
/// "drive", "news", "synthetic1", "synthetic2". `num_samples` == 0 keeps the
/// paper-reported size.
core::StatusOr<Dataset> GetEvaluationDataset(const std::string& dataset_name,
                                           std::size_t num_samples = 0,
                                           std::uint64_t seed = 42);

}  // namespace vfl::data

#endif  // VFLFIA_DATA_SYNTHETIC_H_
