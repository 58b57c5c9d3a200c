#include "nas/gumbel.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace a3cs::nas {

GumbelCategorical::GumbelCategorical(std::string name, int num_choices)
    : logits_(std::move(name), tensor::Shape::vec(num_choices)) {
  A3CS_CHECK(num_choices >= 1, "GumbelCategorical needs >= 1 choice");
}

GumbelSample GumbelCategorical::sample(util::Rng& rng, double tau) const {
  GumbelSample out;
  sample(rng, tau, out);
  return out;
}

void GumbelCategorical::sample(util::Rng& rng, double tau,
                               GumbelSample& out) const {
  const int n = num_choices();
  out.relaxed.resize(static_cast<std::size_t>(n));
  // Grow-only per-thread scratch: every caller draws on its own thread.
  thread_local std::vector<double> perturbed;
  perturbed.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    perturbed[static_cast<std::size_t>(i)] =
        static_cast<double>(logits_.value[i]) + rng.gumbel();
  }
  out.index = static_cast<int>(
      std::max_element(perturbed.begin(), perturbed.end()) -
      perturbed.begin());
  // Relaxed softmax at temperature tau over the same perturbed logits.
  double mx = perturbed[0];
  for (double v : perturbed) mx = std::max(mx, v);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e = std::exp((perturbed[static_cast<std::size_t>(i)] - mx) /
                              tau);
    out.relaxed[static_cast<std::size_t>(i)] = static_cast<float>(e);
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (float& y : out.relaxed) y *= inv;
}

std::vector<float> GumbelCategorical::probabilities(double tau) const {
  const int n = num_choices();
  std::vector<float> out(static_cast<std::size_t>(n));
  double mx = logits_.value[0];
  for (int i = 1; i < n; ++i) {
    mx = std::max(mx, static_cast<double>(logits_.value[i]));
  }
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double e =
        std::exp((static_cast<double>(logits_.value[i]) - mx) / tau);
    out[static_cast<std::size_t>(i)] = static_cast<float>(e);
    sum += e;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (float& y : out) y *= inv;
  return out;
}

int GumbelCategorical::argmax() const {
  int best = 0;
  for (int i = 1; i < num_choices(); ++i) {
    if (logits_.value[i] > logits_.value[best]) best = i;
  }
  return best;
}

void GumbelCategorical::accumulate_grad(const GumbelSample& s,
                                        const std::vector<float>& sens,
                                        double tau) {
  const int n = num_choices();
  A3CS_CHECK(static_cast<int>(sens.size()) == n,
             "accumulate_grad: sensitivity size mismatch");
  A3CS_CHECK(static_cast<int>(s.relaxed.size()) == n,
             "accumulate_grad: sample size mismatch");
  // dL/dl_i = (1/tau) * [ s_i y_i - y_i * sum_k s_k y_k ]
  double weighted = 0.0;
  for (int k = 0; k < n; ++k) {
    weighted += static_cast<double>(sens[static_cast<std::size_t>(k)]) *
                s.relaxed[static_cast<std::size_t>(k)];
  }
  for (int i = 0; i < n; ++i) {
    const double yi = s.relaxed[static_cast<std::size_t>(i)];
    const double g =
        (static_cast<double>(sens[static_cast<std::size_t>(i)]) * yi -
         yi * weighted) /
        tau;
    logits_.grad[i] += static_cast<float>(g);
  }
}

void GumbelCategorical::add_grad(int index, float g) {
  A3CS_CHECK(index >= 0 && index < num_choices(), "add_grad: bad index");
  logits_.grad[index] += g;
}

}  // namespace a3cs::nas
