#include "nas/mixed_op.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace a3cs::nas {

MixedOp::MixedOp(std::string name, int in_c, int out_c, int stride,
                 util::Rng& rng, util::Rng* sampler, const double* tau,
                 int backward_paths)
    : name_(std::move(name)),
      in_c_(in_c),
      out_c_(out_c),
      stride_(stride),
      alpha_(name_ + ".alpha", static_cast<int>(candidate_ops().size())),
      sampler_(sampler),
      tau_(tau),
      backward_paths_(backward_paths) {
  A3CS_CHECK(sampler_ != nullptr && tau_ != nullptr,
             "MixedOp needs a shared sampler and temperature");
  const int n = static_cast<int>(candidate_ops().size());
  A3CS_CHECK(backward_paths_ >= 1 && backward_paths_ <= n,
             "MixedOp: K must be in [1, N]");
  for (int i = 0; i < n; ++i) {
    ops_.push_back(make_candidate(
        i, name_ + ".op" + std::to_string(i), in_c, out_c, stride, rng));
  }
  order_.resize(static_cast<std::size_t>(n));
  sens_.resize(static_cast<std::size_t>(n));
}

nn::Module& MixedOp::choose() {
  if (argmax_mode_) {
    last_sample_.index = alpha_.argmax();
    last_sample_.relaxed.assign(static_cast<std::size_t>(num_candidates()),
                                0.0f);
    last_sample_.relaxed[static_cast<std::size_t>(last_sample_.index)] = 1.0f;
  } else {
    alpha_.sample(*sampler_, *tau_, last_sample_);
  }
  return *ops_[static_cast<std::size_t>(last_sample_.index)];
}

nn::Tensor MixedOp::forward(const nn::Tensor& x) {
  nn::Module& op = choose();
  cached_input_ = x;
  cached_output_ = op.forward(x);
  has_cache_ = true;
  return cached_output_;
}

nn::Tensor MixedOp::infer(nn::Tensor x) {
  has_cache_ = false;
  return choose().infer(std::move(x));
}

nn::Tensor MixedOp::backward(const nn::Tensor& grad_out) {
  A3CS_CHECK(has_cache_, name_ + ": backward before forward");

  // --- alpha gradient via the relaxed top-K paths (Eq. 7) ---------------
  if (!argmax_mode_) {
    const int n = num_candidates();
    std::iota(order_.begin(), order_.end(), 0);
    const int paths = std::min(backward_paths_, n);
    std::partial_sort(order_.begin(), order_.begin() + paths, order_.end(),
                      [&](int a, int b) {
                        return last_sample_.relaxed[static_cast<std::size_t>(
                                   a)] >
                               last_sample_.relaxed[static_cast<std::size_t>(
                                   b)];
                      });
    std::fill(sens_.begin(), sens_.end(), 0.0f);
    static obs::Counter& extra_fwd = obs::MetricsRegistry::global().counter(
        "nas.backward_extra_forwards");
    extra_fwd.inc(paths - 1);
    // The K sensitivity paths are independent: each candidate is a distinct
    // module evaluated read-only against the cached input, and each writes
    // only its own sens_ slot, so the fan-out is race-free and the serial
    // accumulate_grad below sees thread-count-independent values.
    util::parallel_for(
        0, paths, 1,
        [&](std::int64_t r0, std::int64_t r1) {
          for (int r = static_cast<int>(r0); r < static_cast<int>(r1); ++r) {
            const int k = order_[static_cast<std::size_t>(r)];
            // <dL/dOut, O_k(x)>: reuse the cached output for the activated
            // path; run a cache-free inference for the others.
            sens_[static_cast<std::size_t>(k)] =
                k == last_sample_.index
                    ? grad_out.dot(cached_output_)
                    : grad_out.dot(
                          ops_[static_cast<std::size_t>(k)]->infer(
                              cached_input_));
          }
        },
        "nas-topk");
    alpha_.accumulate_grad(last_sample_, sens_, *tau_);
  }

  // --- weight/input gradient through the single activated path ----------
  nn::Tensor grad_in =
      ops_[static_cast<std::size_t>(last_sample_.index)]->backward(grad_out);
  has_cache_ = false;
  return grad_in;
}

void MixedOp::collect_parameters(std::vector<nn::Parameter*>& out) {
  for (auto& op : ops_) op->collect_parameters(out);
}

}  // namespace a3cs::nas
