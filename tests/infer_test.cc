// Module::infer, the cache-free forward: for every module kind it must return
// the bit-identical output of forward() at 1 and 3 pool threads, draw the
// same Gumbel samples, leave an earlier forward's cache usable (the column
// workspace is per thread, not the module's) and, in a MixedOp, make a later
// backward() throw.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "nas/mixed_op.h"
#include "nas/supernet.h"
#include "nn/actor_critic.h"
#include "nn/blocks.h"
#include "nn/layers.h"
#include "nn/zoo.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

using nn::Shape;
using nn::Tensor;

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

bool same_state(const util::Rng& a, const util::Rng& b) {
  const util::RngState sa = a.state(), sb = b.state();
  return std::memcmp(sa.s, sb.s, sizeof sa.s) == 0 &&
         sa.has_cached_normal == sb.has_cached_normal &&
         (!sa.has_cached_normal || sa.cached_normal == sb.cached_normal);
}

// Runs `body` at 1 and at 3 pool threads, restoring the serial default.
void at_one_and_three_threads(const std::function<void(int)>& body) {
  for (const int threads : {1, 3}) {
    util::ThreadPool::set_global_threads(threads);
    body(threads);
  }
  util::ThreadPool::set_global_threads(1);
}

// forward(x) and infer(x) of one deterministic module, bit for bit, infer
// both before and after the forward.
void expect_infer_matches_forward(nn::Module& m, const Tensor& x) {
  at_one_and_three_threads([&](int threads) {
    const Tensor before = m.infer(x);
    const Tensor fwd = m.forward(x);
    const Tensor after = m.infer(x);
    EXPECT_TRUE(bit_equal(fwd, before)) << m.name() << " t=" << threads;
    EXPECT_TRUE(bit_equal(fwd, after)) << m.name() << " t=" << threads;
  });
}

TEST(Infer, Conv2dMatchesForward) {
  util::Rng rng(1);
  // Search shapes (3x3 stride 2 stem, 5x5 pad 2, 1x1 expand) and a batch
  // wide enough for several column shards.
  nn::Conv2d stem("stem", 3, 8, 3, 2, 1, rng);
  expect_infer_matches_forward(stem,
                               random_tensor(Shape::nchw(40, 3, 12, 12), 2));
  nn::Conv2d conv5("conv5", 8, 16, 5, 1, 2, rng);
  expect_infer_matches_forward(conv5,
                               random_tensor(Shape::nchw(8, 8, 6, 6), 3));
  nn::Conv2d expand("expand", 16, 48, 1, 1, 0, rng);
  expect_infer_matches_forward(expand,
                               random_tensor(Shape::nchw(40, 16, 3, 3), 4));
}

TEST(Infer, DepthwiseLinearFlattenSequentialMatchForward) {
  util::Rng rng(5);
  nn::DepthwiseConv2d dw("dw", 12, 3, 2, 1, rng);
  expect_infer_matches_forward(dw, random_tensor(Shape::nchw(8, 12, 6, 6), 6));
  nn::Linear fc("fc", 72, 256, rng);
  expect_infer_matches_forward(fc, random_tensor(Shape::mat(40, 72), 7));
  nn::Flatten flatten;
  expect_infer_matches_forward(flatten,
                               random_tensor(Shape::nchw(4, 3, 2, 2), 8));
  nn::Sequential seq("seq");
  seq.add(std::make_unique<nn::Conv2d>("seq.conv", 3, 4, 3, 1, 1, rng));
  seq.add(std::make_unique<nn::ReLU>("seq.relu"));
  seq.add(std::make_unique<nn::Flatten>("seq.flatten"));
  seq.add(std::make_unique<nn::Linear>("seq.fc", 4 * 5 * 5, 6, rng));
  expect_infer_matches_forward(seq, random_tensor(Shape::nchw(3, 3, 5, 5), 9));
}

TEST(Infer, ReLUKeepsSignedZeroNanAndInfinities) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x(Shape::vec(9), std::vector<float>{-0.0f, 0.0f, nan, -nan, inf,
                                             -inf, -2.5f, 3.5f, -1e-40f});
  nn::ReLU relu;
  expect_infer_matches_forward(relu, x);
  const Tensor y = relu.infer(x);
  EXPECT_TRUE(std::signbit(y[0]));  // -0.0 < 0 is false: kept as is
  EXPECT_TRUE(std::isnan(y[2]));
  EXPECT_TRUE(std::isnan(y[3]));
  EXPECT_EQ(y[4], inf);
  EXPECT_EQ(y[5], 0.0f);
  EXPECT_FALSE(std::signbit(y[6]));
  EXPECT_EQ(y[8], 0.0f);
  // Backward passes the gradient only where the input is > 0; NaN inputs
  // compare false with <= 0 and pass it too.
  relu.forward(x);
  const Tensor g = relu.backward(Tensor(Shape::vec(9), 1.0f));
  const float want[9] = {0.0f, 0.0f, 1.0f, 1.0f, 1.0f, 0.0f, 0.0f, 1.0f, 0.0f};
  for (int i = 0; i < 9; ++i) EXPECT_EQ(g[i], want[i]) << "element " << i;
}

TEST(Infer, BlocksMatchForward) {
  util::Rng rng(10);
  const Tensor x = random_tensor(Shape::nchw(8, 6, 6, 6), 11);
  nn::ResidualBlock res_identity("res_id", 6, 6, 3, 1, rng);
  expect_infer_matches_forward(res_identity, x);
  nn::ResidualBlock res_proj("res_proj", 6, 12, 3, 2, rng);
  expect_infer_matches_forward(res_proj, x);
  nn::InvertedResidual ir_skip("ir_skip", 6, 6, 5, 3, 1, rng);
  expect_infer_matches_forward(ir_skip, x);
  nn::InvertedResidual ir_no_skip("ir_no_skip", 6, 12, 3, 5, 2, rng);
  expect_infer_matches_forward(ir_no_skip, x);
  nn::SkipOp skip_identity("skip_id", 6, 6, 1);
  expect_infer_matches_forward(skip_identity, x);
  nn::SkipOp skip_strided("skip_strided", 6, 4, 2);
  expect_infer_matches_forward(skip_strided, x);
}

TEST(Infer, LeavesAnEarlierForwardCacheIntact) {
  // A forward, an infer on other data, then backward: the gradients must be
  // those of the forward alone (the infer columns are a per-thread
  // workspace, never the layer's cached columns).
  util::Rng rng(12);
  nn::ResidualBlock a("a", 4, 8, 3, 2, rng);
  util::Rng rng2(12);
  nn::ResidualBlock b("a", 4, 8, 3, 2, rng2);
  const Tensor x = random_tensor(Shape::nchw(5, 4, 6, 6), 13);
  const Tensor other = random_tensor(Shape::nchw(7, 4, 6, 6), 14);
  at_one_and_three_threads([&](int threads) {
    a.zero_grad();
    b.zero_grad();
    const Tensor ya = a.forward(x);
    a.infer(other);
    const Tensor ga = a.backward(Tensor(ya.shape(), 0.1f));
    const Tensor yb = b.forward(x);
    const Tensor gb = b.backward(Tensor(yb.shape(), 0.1f));
    EXPECT_TRUE(bit_equal(ga, gb)) << "t=" << threads;
    const auto pa = a.parameters(), pb = b.parameters();
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_TRUE(bit_equal(pa[i]->grad, pb[i]->grad))
          << pa[i]->name << " t=" << threads;
    }
  });
}

TEST(MixedOp, InferDrawsTheSameSampleAsForward) {
  util::Rng rng(15), sampler(16);
  double tau = 5.0;
  nas::MixedOp mixed("cell", 4, 8, 1, rng, &sampler, &tau, 3);
  const Tensor x = random_tensor(Shape::nchw(6, 4, 6, 6), 17);
  std::set<int> seen;
  at_one_and_three_threads([&](int threads) {
    for (int i = 0; i < 24; ++i) {
      const util::Rng start = sampler;
      const Tensor fwd = mixed.forward(x);
      const int choice = mixed.last_choice();
      const util::Rng after_forward = sampler;
      sampler = start;
      const Tensor inf = mixed.infer(x);
      EXPECT_EQ(mixed.last_choice(), choice) << "t=" << threads;
      EXPECT_TRUE(same_state(sampler, after_forward)) << "t=" << threads;
      EXPECT_TRUE(bit_equal(fwd, inf))
          << "choice " << choice << " t=" << threads;
      seen.insert(choice);
    }
  });
  EXPECT_GE(seen.size(), 5u);  // uniform alpha at tau 5 explores the ops
}

TEST(MixedOp, ArgmaxModeInferMatchesForward) {
  util::Rng rng(18), sampler(19);
  double tau = 5.0;
  nas::MixedOp mixed("cell", 4, 8, 2, rng, &sampler, &tau, 2);
  mixed.alpha().param().value[6] = 3.0f;
  mixed.set_argmax_mode(true);
  const util::Rng start = sampler;
  expect_infer_matches_forward(mixed,
                               random_tensor(Shape::nchw(3, 4, 6, 6), 20));
  EXPECT_EQ(mixed.last_choice(), 6);
  EXPECT_TRUE(same_state(sampler, start));  // argmax draws nothing
}

TEST(MixedOp, BackwardAfterInferThrows) {
  util::Rng rng(21), sampler(22);
  double tau = 2.0;
  nas::MixedOp mixed("cell", 4, 8, 1, rng, &sampler, &tau, 2);
  const Tensor x = random_tensor(Shape::nchw(2, 4, 6, 6), 23);
  const Tensor g(Shape::nchw(2, 8, 6, 6), 0.1f);
  mixed.infer(x);
  EXPECT_THROW(mixed.backward(g), std::runtime_error);
  // An infer after a forward drops that forward's cache too: the sample
  // the backward would read is no longer the one the cache holds.
  mixed.forward(x);
  mixed.infer(x);
  EXPECT_THROW(mixed.backward(g), std::runtime_error);
  mixed.forward(x);
  EXPECT_NO_THROW(mixed.backward(g));
}

std::string search_state(const nas::Supernet& sn) {
  std::ostringstream out;
  sn.save_search_state(out);
  return out.str();
}

TEST(Supernet, InferMatchesForwardSampleForSample) {
  nas::SupernetConfig cfg;
  cfg.space.num_cells = 6;
  cfg.backward_paths = 3;
  util::Rng rng(24);
  nas::Supernet sn(nn::ObsSpec{3, 12, 12}, cfg, rng);
  const Tensor x = random_tensor(Shape::nchw(8, 3, 12, 12), 25);
  at_one_and_three_threads([&](int threads) {
    for (int i = 0; i < 6; ++i) {
      const std::string start = search_state(sn);
      const Tensor fwd = sn.forward(x);
      const std::vector<int> choices = sn.last_choices();
      const std::string after_forward = search_state(sn);
      std::istringstream rewind(start);
      sn.load_search_state(rewind);
      const Tensor inf = sn.infer(x);
      EXPECT_EQ(sn.last_choices(), choices) << "t=" << threads;
      EXPECT_EQ(search_state(sn), after_forward) << "t=" << threads;
      EXPECT_TRUE(bit_equal(fwd, inf)) << "t=" << threads;
    }
    EXPECT_THROW(sn.backward(Tensor(Shape::mat(8, 256), 0.01f)),
                 std::runtime_error);
  });
  sn.set_argmax_mode(true);
  expect_infer_matches_forward(sn, x);
}

TEST(Supernet, RunnerUpInferenceIsThreadCountIndependent) {
  // The Eq. 7 runner-ups run infer on pool workers, each with its own
  // column workspace: the alpha and weight gradients must not depend on
  // the thread count.
  std::vector<std::vector<float>> grads_at_one;
  for (const int threads : {1, 3}) {
    util::ThreadPool::set_global_threads(threads);
    nas::SupernetConfig cfg;
    cfg.space.num_cells = 6;
    cfg.backward_paths = 4;
    util::Rng rng(26);
    nas::Supernet sn(nn::ObsSpec{3, 12, 12}, cfg, rng);
    const Tensor x = random_tensor(Shape::nchw(8, 3, 12, 12), 27);
    for (int step = 0; step < 3; ++step) {
      sn.infer(x);  // a rollout-style inference between the steps
      const Tensor y = sn.forward(x);
      sn.backward(random_tensor(y.shape(), 28 + step));
    }
    std::vector<nn::Parameter*> params = sn.alpha_params();
    sn.collect_parameters(params);
    for (std::size_t i = 0; i < params.size(); ++i) {
      const std::vector<float>& g = params[i]->grad.vec();
      if (threads == 1) {
        grads_at_one.push_back(g);
      } else {
        EXPECT_EQ(0, std::memcmp(g.data(), grads_at_one[i].data(),
                                 sizeof(float) * g.size()))
            << params[i]->name;
      }
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(ActorCriticNet, InferMatchesForward) {
  const nn::ObsSpec obs{3, 12, 12};
  util::Rng rng(29);
  nn::AgentBuild teacher = nn::build_zoo_agent("ResNet-20", obs, 4, rng);
  nas::SupernetConfig cfg;
  cfg.space.num_cells = 6;
  auto sn = std::make_unique<nas::Supernet>(obs, cfg, rng);
  nas::Supernet* sn_ptr = sn.get();
  nn::ActorCriticNet agent(std::move(sn), 256, 4, rng);
  const Tensor x = random_tensor(Shape::nchw(8, 3, 12, 12), 30);
  at_one_and_three_threads([&](int threads) {
    const nn::AcOutput t_fwd = teacher.net->forward(x);
    const nn::AcOutput t_inf = teacher.net->infer(x);
    EXPECT_TRUE(bit_equal(t_fwd.logits, t_inf.logits)) << "t=" << threads;
    EXPECT_TRUE(bit_equal(t_fwd.value, t_inf.value)) << "t=" << threads;

    const std::string start = search_state(*sn_ptr);
    const nn::AcOutput a_fwd = agent.forward(x);
    std::istringstream rewind(start);
    sn_ptr->load_search_state(rewind);
    const nn::AcOutput a_inf = agent.infer(x);
    EXPECT_TRUE(bit_equal(a_fwd.logits, a_inf.logits)) << "t=" << threads;
    EXPECT_TRUE(bit_equal(a_fwd.value, a_inf.value)) << "t=" << threads;
  });
}

}  // namespace
}  // namespace a3cs
