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
  for (const Parameter* p : params_) {
    first_moment_.emplace_back(p->value.rows(), p->value.cols());
    second_moment_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::Step() {
  ++step_count_;
  const double bias1 = 1.0 - std::pow(beta1_, step_count_);
  const double bias2 = 1.0 - std::pow(beta2_, step_count_);
  // Locals, not members: a store through a parameter pointer could alias a
  // member, which forces a reload per element and blocks vectorization.
  const double learning_rate = learning_rate_;
  const double beta1 = beta1_;
  const double beta2 = beta2_;
  const double epsilon = epsilon_;
  const double weight_decay = weight_decay_;
  // The square roots get a pass of their own over a chunk-sized scratch, so
  // the moment and step loops vectorize.
  constexpr std::size_t kChunk = 256;
  double root_v_hat[kChunk];
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    const std::size_t size = p->value.size();
    for (std::size_t begin = 0; begin < size; begin += kChunk) {
      const std::size_t n = std::min(kChunk, size - begin);
      double* value = p->value.data() + begin;
      const double* grad = p->grad.data() + begin;
      double* m = first_moment_[i].data() + begin;
      double* v = second_moment_[i].data() + begin;
      for (std::size_t j = 0; j < n; ++j) {
        const double g = grad[j] + weight_decay * value[j];
        m[j] = beta1 * m[j] + (1.0 - beta1) * g;
        v[j] = beta2 * v[j] + (1.0 - beta2) * g * g;
        root_v_hat[j] = v[j] / bias2;
      }
      SqrtInPlace(root_v_hat, n);
      for (std::size_t j = 0; j < n; ++j) {
        value[j] -= learning_rate * (m[j] / bias1) / (root_v_hat[j] + epsilon);
      }
    }
  }
}

}  // namespace vfl::nn
