#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace vfl::nn {

namespace {

/// x[i] = sqrt(x[i]). std::sqrt keeps a scalar errno path, so SSE2 takes the
/// roots two at a time; IEEE square roots are correctly rounded, so both
/// give the same bits.
void SqrtInPlace(double* x, std::size_t n) {
  std::size_t i = 0;
#if defined(__SSE2__)
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(x + i, _mm_sqrt_pd(_mm_loadu_pd(x + i)));
  }
#endif
  for (; i < n; ++i) x[i] = std::sqrt(x[i]);
}

/// One Adam step's constants, passed by value so the loops below hold them
/// in registers: a store through a parameter pointer could alias a member
/// or a captured reference, which forces a reload per element and blocks
/// vectorization.
struct AdamStep {
  double learning_rate;
  double beta1;
  double beta2;
  double epsilon;
  double weight_decay;
  double bias1;  // 1 - beta1^t
  double bias2;  // 1 - beta2^t
};

/// Updates `count` consecutive elements of one parameter and its moments.
void UpdateElements(const AdamStep s, double* value, const double* grad,
                    double* m, double* v, std::size_t count) {
  // The square roots get a pass of their own over a chunk-sized scratch, so
  // the moment and step loops vectorize.
  constexpr std::size_t kChunk = 256;
  double root_v_hat[kChunk];
  for (std::size_t begin = 0; begin < count; begin += kChunk) {
    const std::size_t n = std::min(kChunk, count - begin);
    for (std::size_t j = begin; j < begin + n; ++j) {
      const double g = grad[j] + s.weight_decay * value[j];
      m[j] = s.beta1 * m[j] + (1.0 - s.beta1) * g;
      v[j] = s.beta2 * v[j] + (1.0 - s.beta2) * g * g;
      root_v_hat[j - begin] = v[j] / s.bias2;
    }
    SqrtInPlace(root_v_hat, n);
    for (std::size_t j = begin; j < begin + n; ++j) {
      value[j] -= s.learning_rate * (m[j] / s.bias1) /
                  (root_v_hat[j - begin] + s.epsilon);
    }
  }
}

}  // namespace

Adam::Adam(std::vector<Parameter*> params, double learning_rate, double beta1,
           double beta2, double epsilon, double weight_decay)
    : params_(std::move(params)),
      learning_rate_(learning_rate),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon),
      weight_decay_(weight_decay) {
  first_moment_.reserve(params_.size());
  second_moment_.reserve(params_.size());
  row_offsets_.reserve(params_.size() + 1);
  element_offsets_.reserve(params_.size() + 1);
  row_offsets_.push_back(0);
  element_offsets_.push_back(0);
  for (const Parameter* p : params_) {
    first_moment_.emplace_back(p->value.rows(), p->value.cols());
    second_moment_.emplace_back(p->value.rows(), p->value.cols());
    row_offsets_.push_back(row_offsets_.back() + p->value.rows());
    element_offsets_.push_back(element_offsets_.back() + p->value.size());
  }
}

template <typename Fn>
void Adam::ForEachRowSpan(std::size_t p0, std::size_t p1, Fn fn) const {
  for (std::size_t i = 0; i < params_.size() && row_offsets_[i] < p1; ++i) {
    if (row_offsets_[i + 1] <= p0) continue;
    const std::size_t cols = params_[i]->value.cols();
    const std::size_t first = std::max(p0, row_offsets_[i]) - row_offsets_[i];
    const std::size_t last =
        std::min(p1, row_offsets_[i + 1]) - row_offsets_[i];
    fn(i, first * cols, last * cols);
  }
}

std::pair<std::size_t, std::size_t> Adam::RowsStartingIn(
    std::size_t e0, std::size_t e1) const {
  // First row whose first element is at or past e.
  const auto first_row_from = [this](std::size_t e) {
    for (std::size_t i = 0; i < params_.size(); ++i) {
      if (e > element_offsets_[i + 1]) continue;
      const std::size_t cols = params_[i]->value.cols();
      const std::size_t into = e - element_offsets_[i];
      return row_offsets_[i] + (into + cols - 1) / std::max<std::size_t>(cols, 1);
    }
    return num_rows();
  };
  return {first_row_from(e0), first_row_from(e1)};
}

void Adam::ZeroGradRows(std::size_t p0, std::size_t p1) {
  ForEachRowSpan(p0, p1, [this](std::size_t i, std::size_t begin,
                                std::size_t end) {
    double* grad = params_[i]->grad.data();
    std::fill(grad + begin, grad + end, 0.0);
  });
}

void Adam::Step() {
  BeginStep();
  StepRows(0, num_rows());
}

void Adam::BeginStep() {
  for (Parameter* p : params_) p->BumpVersion();
  ++step_count_;
  bias1_ = 1.0 - std::pow(beta1_, step_count_);
  bias2_ = 1.0 - std::pow(beta2_, step_count_);
}

void Adam::StepRows(std::size_t p0, std::size_t p1) {
  const AdamStep step{learning_rate_, beta1_,  beta2_, epsilon_,
                      weight_decay_,  bias1_, bias2_};
  ForEachRowSpan(p0, p1, [&](std::size_t i, std::size_t first,
                             std::size_t last) {
    UpdateElements(step, params_[i]->value.data() + first,
                   params_[i]->grad.data() + first,
                   first_moment_[i].data() + first,
                   second_moment_[i].data() + first, last - first);
  });
}

}  // namespace vfl::nn
