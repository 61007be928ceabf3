#include "data/synthetic.h"

#include <cmath>
#include <sstream>

#include "data/normalize.h"
#include "la/matrix_ops.h"

namespace vfl::data {

namespace {

/// Stddev of the noise added to redundant features on top of the linear mix.
constexpr double kRedundantNoise = 0.1;

/// Deterministic per-class centroids on hypercube vertices scaled by
/// class_sep, with jitter so no two classes coincide even when classes
/// outnumber distinct vertices in low dimension.
la::Matrix MakeCentroids(std::size_t num_classes, std::size_t num_informative,
                         double class_sep, core::Rng& rng) {
  la::Matrix centroids(num_classes, num_informative);
  for (std::size_t k = 0; k < num_classes; ++k) {
    for (std::size_t j = 0; j < num_informative; ++j) {
      const double vertex = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      centroids(k, j) = class_sep * vertex + 0.35 * class_sep * rng.Gaussian();
    }
  }
  return centroids;
}

}  // namespace

Dataset MakeClassification(const ClassificationSpec& spec) {
  CHECK_GT(spec.num_samples, 0u);
  CHECK_GT(spec.num_features, 0u);
  CHECK_GE(spec.num_classes, 2u);
  CHECK_GT(spec.num_informative, 0u);
  CHECK_LE(spec.num_informative + spec.num_redundant, spec.num_features);
  CHECK_GE(spec.label_noise, 0.0);
  CHECK_LE(spec.label_noise, 1.0);

  core::Rng rng(spec.seed);
  const std::size_t n = spec.num_samples;
  const std::size_t d = spec.num_features;
  const std::size_t d_inf = spec.num_informative;
  const std::size_t d_red = spec.num_redundant;
  const std::size_t d_noise = d - d_inf - d_red;

  const la::Matrix centroids =
      MakeCentroids(spec.num_classes, d_inf, spec.class_sep, rng);

  // Mixing matrix for redundant features: each redundant column is a random
  // linear combination of informative columns.
  la::Matrix mix(d_inf, d_red);
  for (std::size_t i = 0; i < mix.size(); ++i) {
    mix.data()[i] = rng.Gaussian();
  }

  Dataset out;
  out.num_classes = spec.num_classes;
  out.name = spec.name;
  out.x = la::Matrix(n, d);
  out.y.resize(n);

  std::vector<double> informative(d_inf);
  for (std::size_t t = 0; t < n; ++t) {
    const std::size_t label = rng.UniformInt(spec.num_classes);
    for (std::size_t j = 0; j < d_inf; ++j) {
      informative[j] = centroids(label, j) + rng.Gaussian();
    }
    double* row = out.x.RowPtr(t);
    for (std::size_t j = 0; j < d_inf; ++j) row[j] = informative[j];
    for (std::size_t j = 0; j < d_red; ++j) {
      double acc = 0.0;
      for (std::size_t i = 0; i < d_inf; ++i) {
        acc += informative[i] * mix(i, j);
      }
      // Keep redundant features on a scale comparable to informative ones.
      row[d_inf + j] = acc / std::sqrt(static_cast<double>(d_inf)) +
                       kRedundantNoise * rng.Gaussian();
    }
    for (std::size_t j = 0; j < d_noise; ++j) {
      row[d_inf + d_red + j] = rng.Gaussian();
    }
    out.y[t] = spec.label_noise > 0.0 && rng.Bernoulli(spec.label_noise)
                   ? static_cast<int>(rng.UniformInt(spec.num_classes))
                   : static_cast<int>(label);
  }

  out.feature_names.reserve(d);
  for (std::size_t j = 0; j < d; ++j) {
    std::ostringstream name;
    if (j < d_inf) {
      name << "inf_" << j;
    } else if (j < d_inf + d_red) {
      name << "red_" << (j - d_inf);
    } else {
      name << "noise_" << (j - d_inf - d_red);
    }
    out.feature_names.push_back(name.str());
  }

  if (spec.shuffle_columns) {
    const std::vector<std::size_t> perm = rng.Permutation(d);
    out.x = out.x.GatherCols(perm);
    std::vector<std::string> shuffled_names(d);
    for (std::size_t j = 0; j < d; ++j) {
      shuffled_names[j] = out.feature_names[perm[j]];
    }
    out.feature_names = std::move(shuffled_names);
  }
  return out;
}

namespace {

/// Shared recipe for the simulated evaluation datasets: generate with a
/// correlated informative/redundant mix at the paper-reported shape, then
/// min–max normalize into (0,1) (Sec. VI-A) and apply a per-dataset skew
/// x <- x^skew_power. Real UCI features are right-skewed after min–max
/// scaling (monetary amounts, counts); the skew controls E[2x^2], the
/// paper's Eqn 15 bound on ESA error, which differs sharply across datasets
/// (bank 0.60 vs credit 0.14) and drives the Fig. 5 shape.
Dataset MakeNormalizedSim(std::string name, std::size_t default_n,
                          std::size_t requested_n, std::size_t d,
                          std::size_t c, std::size_t d_inf, std::size_t d_red,
                          double class_sep, double label_noise,
                          double skew_power, std::uint64_t seed) {
  ClassificationSpec spec;
  spec.num_samples = requested_n == 0 ? default_n : requested_n;
  spec.num_features = d;
  spec.num_classes = c;
  spec.num_informative = d_inf;
  spec.num_redundant = d_red;
  spec.class_sep = class_sep;
  spec.label_noise = label_noise;
  spec.seed = seed;
  spec.name = std::move(name);
  Dataset dataset = MakeClassification(spec);
  MinMaxNormalizer normalizer;
  dataset.x = normalizer.FitTransform(dataset.x);
  if (skew_power != 1.0) {
    double* values = dataset.x.data();
    for (std::size_t i = 0; i < dataset.x.size(); ++i) {
      values[i] = std::pow(values[i], skew_power);
    }
  }
  return dataset;
}

}  // namespace

Dataset MakeBankMarketingSim(std::size_t num_samples, std::uint64_t seed) {
  // Table II: 45211 samples, 20 features, 2 classes. Bank-style marketing
  // data is modestly separable with several correlated behavioural features.
  // skew 1.0 keeps E[2x^2] ~ 0.55, close to the paper's 0.60 bound for Bank.
  return MakeNormalizedSim("bank", 45211, num_samples, /*d=*/20, /*c=*/2,
                           /*d_inf=*/8, /*d_red=*/8, /*class_sep=*/1.2,
                           /*label_noise=*/0.05, /*skew_power=*/1.0, seed);
}

Dataset MakeCreditCardSim(std::size_t num_samples, std::uint64_t seed) {
  // Table II: 30000 samples, 23 features, 2 classes. Credit-card billing
  // columns are strongly cross-correlated (monthly bill/payment histories),
  // so the redundant share is high.
  // Strong right-skew (billing amounts): E[2x^2] ~ 0.14, the paper's bound.
  return MakeNormalizedSim("credit", 30000, num_samples, /*d=*/23, /*c=*/2,
                           /*d_inf=*/9, /*d_red=*/11, /*class_sep=*/1.0,
                           /*label_noise=*/0.08, /*skew_power=*/2.9, seed + 1);
}

Dataset MakeDriveDiagnosisSim(std::size_t num_samples, std::uint64_t seed) {
  // Table II: 58509 samples, 48 features, 11 classes. Sensor channels carry
  // strong class structure (high separability, many classes).
  // Mild skew: E[2x^2] ~ 0.45 per the paper's bound for Drive.
  return MakeNormalizedSim("drive", 58509, num_samples, /*d=*/48, /*c=*/11,
                           /*d_inf=*/20, /*d_red=*/20, /*class_sep=*/1.8,
                           /*label_noise=*/0.02, /*skew_power=*/1.15, seed + 2);
}

Dataset MakeNewsPopularitySim(std::size_t num_samples, std::uint64_t seed) {
  // Table II: 39797 samples, 59 features, 5 classes. News popularity is the
  // noisiest of the four (weak separability, many weak features).
  // Moderate skew: E[2x^2] ~ 0.34 per the paper's bound for News.
  return MakeNormalizedSim("news", 39797, num_samples, /*d=*/59, /*c=*/5,
                           /*d_inf=*/24, /*d_red=*/22, /*class_sep=*/0.8,
                           /*label_noise=*/0.10, /*skew_power=*/1.55, seed + 3);
}

Dataset MakeSynthetic1(std::size_t num_samples, std::uint64_t seed) {
  // Sec. VI-A: 100000 samples, 25 features, 10 classes.
  return MakeNormalizedSim("synthetic1", 100000, num_samples, /*d=*/25,
                           /*c=*/10, /*d_inf=*/12, /*d_red=*/9,
                           /*class_sep=*/1.5, /*label_noise=*/0.02,
                           /*skew_power=*/1.0, seed + 4);
}

Dataset MakeSynthetic2(std::size_t num_samples, std::uint64_t seed) {
  // Sec. VI-A: 100000 samples, 50 features, 5 classes.
  return MakeNormalizedSim("synthetic2", 100000, num_samples, /*d=*/50,
                           /*c=*/5, /*d_inf=*/20, /*d_red=*/20,
                           /*class_sep=*/1.2, /*label_noise=*/0.03,
                           /*skew_power=*/1.0, seed + 5);
}

core::StatusOr<Dataset> GetEvaluationDataset(const std::string& dataset_name,
                                           std::size_t num_samples,
                                           std::uint64_t seed) {
  if (dataset_name == "bank") return MakeBankMarketingSim(num_samples, seed);
  if (dataset_name == "credit") return MakeCreditCardSim(num_samples, seed);
  if (dataset_name == "drive") return MakeDriveDiagnosisSim(num_samples, seed);
  if (dataset_name == "news") return MakeNewsPopularitySim(num_samples, seed);
  if (dataset_name == "synthetic1") return MakeSynthetic1(num_samples, seed);
  if (dataset_name == "synthetic2") return MakeSynthetic2(num_samples, seed);
  return core::Status::NotFound("unknown evaluation dataset: " + dataset_name);
}

}  // namespace vfl::data
