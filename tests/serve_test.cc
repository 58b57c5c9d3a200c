// Tests for the predictor-as-a-service layer (src/serve): canonical cache
// keys, the sharded LRU memo-cache, batched evaluation bit-exactness across
// thread counts, and the NDJSON request protocol. docs/SERVING.md documents
// the contracts asserted here.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "accel/config_io.h"
#include "accel/predictor.h"
#include "accel/space.h"
#include "nn/zoo.h"
#include "obs/jsonl.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/key.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "util/thread_pool.h"

namespace a3cs {
namespace {

using accel::AcceleratorConfig;
using accel::AcceleratorSpace;
using accel::HwEval;

std::vector<nn::LayerSpec> test_specs(const std::string& name = "ResNet-14") {
  return nn::zoo_model_specs(name, nn::ObsSpec{3, 12, 12}, 4);
}

std::vector<AcceleratorConfig> sample_configs(const AcceleratorSpace& space,
                                              int n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<AcceleratorConfig> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(space.decode(space.random_choices(rng)));
  }
  return out;
}

// Strict bitwise equality on every HwEval field (EXPECT_EQ on doubles is
// exact comparison — the whole point of the determinism contract).
void expect_eval_identical(const HwEval& a, const HwEval& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.ii_cycles, b.ii_cycles);
  EXPECT_EQ(a.latency_cycles, b.latency_cycles);
  EXPECT_EQ(a.fps, b.fps);
  EXPECT_EQ(a.energy_nj, b.energy_nj);
  EXPECT_EQ(a.dsp_used, b.dsp_used);
  EXPECT_EQ(a.bram_used, b.bram_used);
  EXPECT_EQ(a.resource_overflow, b.resource_overflow);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].compute_cycles, b.layers[i].compute_cycles);
    EXPECT_EQ(a.layers[i].memory_cycles, b.layers[i].memory_cycles);
    EXPECT_EQ(a.layers[i].cycles, b.layers[i].cycles);
    EXPECT_EQ(a.layers[i].sram_bytes, b.layers[i].sram_bytes);
    EXPECT_EQ(a.layers[i].dram_bytes, b.layers[i].dram_bytes);
    EXPECT_EQ(a.layers[i].energy_nj, b.layers[i].energy_nj);
    EXPECT_EQ(a.layers[i].chunk, b.layers[i].chunk);
  }
  EXPECT_EQ(a.chunk_cycles, b.chunk_cycles);
}

// ------------------------------------------------------------------ keys ---

TEST(ServeKey, DeterministicAndSensitiveToEveryField) {
  const auto specs = test_specs();
  const auto sig = serve::network_signature(specs);
  AcceleratorSpace space(2, nn::num_groups(specs));
  const AcceleratorConfig cfg = sample_configs(space, 1, 7).front();

  const auto base = serve::cache_key(sig, cfg, 5);
  EXPECT_EQ(base.digest, serve::cache_key(sig, cfg, 5).digest);

  EXPECT_NE(base.digest, serve::cache_key(sig, cfg, 6).digest);  // salt

  AcceleratorConfig m = cfg;
  m.chunks[0].pe_rows += 1;
  EXPECT_NE(base.digest, serve::cache_key(sig, m, 5).digest);
  m = cfg;
  m.chunks[0].tile_oc *= 2;
  EXPECT_NE(base.digest, serve::cache_key(sig, m, 5).digest);
  m = cfg;
  m.chunks[0].split.input += 1e-15;  // one ULP-ish nudge must change the key
  EXPECT_NE(base.digest, serve::cache_key(sig, m, 5).digest);
  m = cfg;
  m.group_to_chunk[0] = (m.group_to_chunk[0] + 1) % m.num_chunks();
  EXPECT_NE(base.digest, serve::cache_key(sig, m, 5).digest);

  auto specs2 = specs;
  specs2[0].out_c += 1;
  EXPECT_NE(base.digest,
            serve::cache_key(serve::network_signature(specs2), cfg, 5).digest);
}

TEST(ServeKey, NetworkSignatureIgnoresLayerNames) {
  const auto specs = test_specs();
  auto renamed = specs;
  for (auto& s : renamed) s.name = "x_" + s.name;
  EXPECT_EQ(serve::network_signature(specs).digest,
            serve::network_signature(renamed).digest);
  EXPECT_EQ(serve::network_signature(specs).num_groups,
            nn::num_groups(specs));
}

TEST(ServeKey, TextFormEmbedsCanonicalEncoding) {
  const auto specs = test_specs("Vanilla");
  const auto sig = serve::network_signature(specs);
  AcceleratorSpace space(1, nn::num_groups(specs));
  const AcceleratorConfig cfg = sample_configs(space, 1, 3).front();
  const std::string text = serve::cache_key_text(sig, cfg, 9);
  EXPECT_NE(text.find(accel::encode_config(cfg)), std::string::npos);
  EXPECT_NE(text.find("salt=9"), std::string::npos);
}

// --------------------------------------------- config_io canonicalization ---

// decode(encode(cfg)) must reproduce the exact bytes of every field: the
// encoded text is the wire form of the serving protocol, and a ULP of drift
// would make the "same" config key differently after a round trip.
TEST(ServeCanonical, ConfigIoRoundTripIsByteIdentical) {
  for (int chunks : {1, 2, 4}) {
    util::Rng rng(static_cast<std::uint64_t>(chunks) * 1237 + 5);
    AcceleratorSpace space(chunks, 6);
    for (int i = 0; i < 32; ++i) {
      const AcceleratorConfig cfg = space.decode(space.random_choices(rng));
      const std::string text = accel::encode_config(cfg);
      const AcceleratorConfig back = accel::decode_config(text);
      ASSERT_EQ(back.group_to_chunk, cfg.group_to_chunk);
      for (int c = 0; c < cfg.num_chunks(); ++c) {
        const auto& a = cfg.chunks[static_cast<std::size_t>(c)];
        const auto& b = back.chunks[static_cast<std::size_t>(c)];
        EXPECT_EQ(a.split.input, b.split.input);    // exact, not NEAR
        EXPECT_EQ(a.split.weight, b.split.weight);
        EXPECT_EQ(a.split.output, b.split.output);
      }
      // Fixed point: re-encoding the decoded config reproduces the text.
      EXPECT_EQ(accel::encode_config(back), text);
      // And the digests agree, which is what the cache actually keys on.
      const auto sig = serve::NetworkSignature{};
      EXPECT_EQ(serve::cache_key(sig, cfg).digest,
                serve::cache_key(sig, back).digest);
    }
  }
}

// Regression for the %.6g era: splits like 1/3 are not representable in 6
// significant digits, so the default-constructed chunk used to come back
// ~1e-7 off and key differently after one wire round trip.
TEST(ServeCanonical, OneThirdSplitSurvivesRoundTrip) {
  AcceleratorConfig cfg;
  cfg.chunks.push_back(accel::ChunkConfig{});  // BufferSplit defaults to 1/3
  cfg.group_to_chunk = {0, 0};
  const AcceleratorConfig back =
      accel::decode_config(accel::encode_config(cfg));
  EXPECT_EQ(back.chunks[0].split.input, 1.0 / 3);
  EXPECT_EQ(back.chunks[0].split.weight, 1.0 / 3);
  EXPECT_EQ(back.chunks[0].split.output, 1.0 / 3);
}

// ----------------------------------------------------------------- cache ---

serve::CacheKey key_of(std::uint64_t n) {
  // Distinct synthetic digests; lo drives the in-shard hash, hi the stripe.
  return serve::CacheKey{serve::Digest128{n * 2654435761ull, n}};
}

serve::CachedEvalPtr value_of(double cost) {
  auto v = std::make_shared<serve::CachedEval>();
  v->cost = cost;
  return v;
}

TEST(ServeCache, LruEvictionOrderWithinOneShard) {
  serve::CacheConfig cfg;
  cfg.shards = 1;
  cfg.capacity = 3;
  serve::ShardedCache cache(cfg);
  cache.insert(key_of(1), value_of(1));
  cache.insert(key_of(2), value_of(2));
  cache.insert(key_of(3), value_of(3));
  ASSERT_EQ(cache.size(), 3);

  // Promote 1 → LRU order (old..new) is 2, 3, 1; inserting 4 evicts 2.
  ASSERT_NE(cache.lookup(key_of(1)), nullptr);
  cache.insert(key_of(4), value_of(4));
  EXPECT_EQ(cache.size(), 3);
  EXPECT_EQ(cache.peek(key_of(2)), nullptr);
  EXPECT_NE(cache.peek(key_of(3)), nullptr);
  EXPECT_NE(cache.peek(key_of(1)), nullptr);
  EXPECT_NE(cache.peek(key_of(4)), nullptr);

  // touch() replays recency without counting a hit: touch 3, insert 5 → 1
  // (now oldest) is evicted, 3 survives.
  const auto before = cache.stats();
  cache.touch(key_of(3));
  EXPECT_EQ(cache.stats().hits, before.hits);
  cache.insert(key_of(5), value_of(5));
  EXPECT_EQ(cache.peek(key_of(1)), nullptr);
  EXPECT_NE(cache.peek(key_of(3)), nullptr);

  const auto s = cache.stats();
  EXPECT_EQ(s.inserts, 5);
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(s.size, 3);
  EXPECT_EQ(s.shards, 1);
}

TEST(ServeCache, EvictedEntryStaysAliveForHolders) {
  serve::CacheConfig cfg;
  cfg.shards = 1;
  cfg.capacity = 1;
  serve::ShardedCache cache(cfg);
  cache.insert(key_of(1), value_of(41));
  const serve::CachedEvalPtr held = cache.lookup(key_of(1));
  ASSERT_NE(held, nullptr);
  cache.insert(key_of(2), value_of(42));  // evicts key 1
  EXPECT_EQ(cache.peek(key_of(1)), nullptr);
  EXPECT_EQ(held->cost, 41.0);  // the shared_ptr keeps the value alive
}

TEST(ServeCache, DisabledCacheIsInert) {
  serve::CacheConfig cfg;
  cfg.enabled = false;
  serve::ShardedCache cache(cfg);
  cache.insert(key_of(1), value_of(1));
  EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
  EXPECT_EQ(cache.size(), 0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);  // disabled lookups count nothing
}

TEST(ServeCache, EnvOverridesApply) {
  ASSERT_EQ(setenv("A3CS_CACHE_SHARDS", "3", 1), 0);
  ASSERT_EQ(setenv("A3CS_CACHE_CAPACITY", "30", 1), 0);
  ASSERT_EQ(setenv("A3CS_CACHE", "1", 1), 0);
  const serve::CacheConfig cfg = serve::CacheConfig{}.with_env_overrides();
  unsetenv("A3CS_CACHE_SHARDS");
  unsetenv("A3CS_CACHE_CAPACITY");
  unsetenv("A3CS_CACHE");
  EXPECT_EQ(cfg.shards, 3);
  EXPECT_EQ(cfg.capacity, 30);
  EXPECT_TRUE(cfg.enabled);
  serve::ShardedCache cache(cfg);
  EXPECT_EQ(cache.shards(), 3);
  EXPECT_EQ(cache.capacity(), 30);  // ceil(30/3)*3
}

// --------------------------------------------------------------- service ---

TEST(ServeService, BatchedMatchesSerialBitExactAtEveryThreadCount) {
  const auto specs = test_specs();
  accel::Predictor predictor;
  AcceleratorSpace space(3, nn::num_groups(specs));
  const auto configs = sample_configs(space, 48, 21);

  // Serial ground truth straight through the predictor, no serving layer.
  std::vector<HwEval> ref;
  std::vector<double> ref_cost;
  for (const auto& cfg : configs) {
    ref.push_back(predictor.evaluate(specs, cfg));
    ref_cost.push_back(predictor.scalar_cost(ref.back()));
  }

  for (int threads : {1, 4, 8}) {
    util::ThreadPool::set_global_threads(threads);
    serve::PredictorService service(predictor);
    const serve::PreparedNet net = service.prepare(specs);
    // Cold pass: every result computed, bit-exact with the serial loop.
    const auto cold = service.evaluate_batch(net, configs);
    ASSERT_EQ(cold.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_eval_identical(cold[i].eval(), ref[i]);
      EXPECT_EQ(cold[i].cost(), ref_cost[i]);
    }
    // Warm pass: served from the memo-cache, same bits, all flagged cached.
    const auto warm = service.evaluate_batch(net, configs);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      expect_eval_identical(warm[i].eval(), ref[i]);
      EXPECT_TRUE(warm[i].cached);
    }
  }
  util::ThreadPool::set_global_threads(1);
}

TEST(ServeService, InFlightDuplicatesCollapseOntoOneEvaluation) {
  const auto specs = test_specs("Vanilla");
  accel::Predictor predictor;
  serve::PredictorService service(predictor);
  const serve::PreparedNet net = service.prepare(specs);
  AcceleratorSpace space(1, nn::num_groups(specs));
  const std::vector<AcceleratorConfig> batch(
      32, sample_configs(space, 1, 2).front());

  const auto results = service.evaluate_batch(net, batch);
  EXPECT_EQ(service.cache().stats().misses, 1);
  EXPECT_EQ(service.cache().stats().inserts, 1);
  int computed = 0;
  for (const auto& r : results) {
    if (!r.cached) ++computed;
    EXPECT_EQ(r.value, results.front().value);  // literally shared
  }
  EXPECT_EQ(computed, 1);  // only the first occurrence paid
}

TEST(ServeService, EvaluateOneHitsAfterMiss) {
  const auto specs = test_specs("Vanilla");
  accel::Predictor predictor;
  serve::PredictorService service(predictor);
  const serve::PreparedNet net = service.prepare(specs);
  AcceleratorSpace space(2, nn::num_groups(specs));
  const AcceleratorConfig cfg = sample_configs(space, 1, 11).front();

  const auto first = service.evaluate_one(net, cfg);
  EXPECT_FALSE(first.cached);
  const auto second = service.evaluate_one(net, cfg);
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.value, second.value);
  expect_eval_identical(first.eval(), predictor.evaluate(specs, cfg));
}

TEST(ServeService, SaltSeparatesPredictors) {
  accel::FpgaBudget small;
  small.dsp = 100;
  accel::Predictor a;  // default budget
  accel::Predictor b(small);
  serve::PredictorService sa(a), sb(b);
  EXPECT_NE(sa.predictor_salt(), sb.predictor_salt());
}

// Concurrent hammering: many threads doing independent evaluate_one calls
// against one service — the shard mutexes and counters must hold up under
// TSan, and every result must stay correct.
TEST(ServeService, ConcurrentLookupsAndInsertsAreSafe) {
  const auto specs = test_specs("Vanilla");
  accel::Predictor predictor;
  serve::CacheConfig cache_cfg;
  cache_cfg.shards = 4;
  cache_cfg.capacity = 16;  // small: forces concurrent evictions too
  serve::PredictorService service(predictor, cache_cfg);
  const serve::PreparedNet net = service.prepare(specs);
  AcceleratorSpace space(2, nn::num_groups(specs));
  const auto configs = sample_configs(space, 24, 31);

  std::vector<double> ref(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    ref[i] = predictor.scalar_cost(predictor.evaluate(specs, configs[i]));
  }

  util::ThreadPool::set_global_threads(4);
  std::vector<double> got(512);
  util::parallel_for(0, 512, 8, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      const std::size_t c = static_cast<std::size_t>(i) % configs.size();
      got[static_cast<std::size_t>(i)] =
          service.evaluate_one(net, configs[c]).cost();
    }
  });
  util::ThreadPool::set_global_threads(1);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], ref[i % configs.size()]);
  }
}

// -------------------------------------------------------------- protocol ---

class ServeProtocolTest : public ::testing::Test {
 protected:
  ServeProtocolTest() : service_(predictor_), registry_(service_) {}

  std::string handle(const std::string& line) {
    return serve::handle_request_line(service_, registry_, line);
  }
  obs::JsonValue reply(const std::string& line) {
    return obs::JsonValue::parse(handle(line));
  }

  accel::Predictor predictor_;
  serve::PredictorService service_;
  serve::NetworkRegistry registry_;
};

TEST_F(ServeProtocolTest, PingAndStats) {
  const auto pong = reply("{\"op\":\"ping\",\"id\":7}");
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_EQ(pong.number_or("id", -1), 7.0);

  const auto stats = reply("{\"op\":\"stats\"}");
  EXPECT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(stats.number_or("misses", -1), 0.0);
  EXPECT_TRUE(stats.find("cache_enabled")->as_bool());
}

TEST_F(ServeProtocolTest, InfoReportsNetworkShape) {
  const auto info = reply("{\"op\":\"info\",\"network\":\"ResNet-14\"}");
  ASSERT_TRUE(info.find("ok")->as_bool());
  const auto specs = test_specs();
  EXPECT_EQ(info.number_or("num_layers", -1),
            static_cast<double>(specs.size()));
  EXPECT_EQ(info.number_or("num_groups", -1),
            static_cast<double>(nn::num_groups(specs)));
  EXPECT_EQ(info.number_or("macs", -1),
            static_cast<double>(nn::network_macs(specs)));
}

TEST_F(ServeProtocolTest, EvalEndToEndMatchesPredictorExactly) {
  const auto specs = test_specs("Vanilla");
  AcceleratorSpace space(1, nn::num_groups(specs));
  const AcceleratorConfig cfg = sample_configs(space, 1, 13).front();
  const std::string req =
      "{\"op\":\"eval\",\"network\":\"Vanilla\",\"configs\":[";
  std::string line = req;
  obs::TraceWriter::append_json_string(line, accel::encode_config(cfg));
  line += "]}";

  const auto resp = reply(line);
  ASSERT_TRUE(resp.find("ok")->as_bool());
  const auto& results = resp.find("results")->as_array();
  ASSERT_EQ(results.size(), 1u);
  const HwEval ref = predictor_.evaluate(specs, cfg);
  // Replies serialize at max_digits10, so the parsed doubles are the
  // predictor's exact bits — not approximately equal, equal.
  EXPECT_EQ(results[0].number_or("fps", -1), ref.fps);
  EXPECT_EQ(results[0].number_or("ii_cycles", -1), ref.ii_cycles);
  EXPECT_EQ(results[0].number_or("energy_nj", -1), ref.energy_nj);
  EXPECT_EQ(results[0].number_or("cost", -1), predictor_.scalar_cost(ref));
  EXPECT_FALSE(results[0].find("cached")->as_bool());

  // Same request again: the reply must be byte-identical except for flipping
  // cached/timing — assert the value fields, and that the hit was counted.
  const auto warm = reply(line);
  EXPECT_TRUE(
      warm.find("results")->as_array()[0].find("cached")->as_bool());
  EXPECT_EQ(service_.cache().stats().hits, 1);
}

TEST_F(ServeProtocolTest, MalformedRequestsNeverThrow) {
  const std::vector<std::string> bad = {
      "",                                          // empty
      "not json at all",                           // parse error
      "42",                                        // not an object
      "{\"no_op\":1}",                             // missing op
      "{\"op\":\"warp\"}",                         // unknown op
      "{\"op\":\"info\"}",                         // missing network
      "{\"op\":\"info\",\"network\":\"NopeNet\"}", // unknown zoo name
      "{\"op\":\"eval\",\"network\":\"Vanilla\"}", // missing configs
      "{\"op\":\"eval\",\"network\":\"Vanilla\",\"configs\":[\"bogus=1\"]}",
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"obs\":[1,2]}",  // bad obs
      // Dimensions and action counts must be whole ints >= 1 that fit int.
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"actions\":1e10}",
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"actions\":1e999}",
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"actions\":2.5}",
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"actions\":0}",
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"actions\":\"4\"}",
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"obs\":[3,12.5,12]}",
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"obs\":[3,12,-1]}",
      "{\"op\":\"info\",\"network\":\"Vanilla\",\"obs\":[1e10,12,12]}",
  };
  for (const std::string& line : bad) {
    std::string out;
    ASSERT_NO_THROW(out = handle(line)) << line;
    const auto resp = obs::JsonValue::parse(out);
    EXPECT_FALSE(resp.find("ok")->as_bool()) << line;
    EXPECT_NE(resp.find("error"), nullptr) << line;
  }
  // The error names the offending field.
  EXPECT_NE(reply("{\"op\":\"info\",\"network\":\"Vanilla\","
                  "\"actions\":2.5}")
                .string_or("error", "")
                .find("\"actions\""),
            std::string::npos);
  EXPECT_NE(reply("{\"op\":\"info\",\"network\":\"Vanilla\","
                  "\"obs\":[3,12,1e10]}")
                .string_or("error", "")
                .find("\"obs[2]\""),
            std::string::npos);
}

TEST_F(ServeProtocolTest, ErrorRepliesEchoTheRequestId) {
  const auto resp = reply("{\"op\":\"warp\",\"id\":\"req-9\"}");
  EXPECT_FALSE(resp.find("ok")->as_bool());
  EXPECT_EQ(resp.string_or("id", ""), "req-9");
}

// Adversarial transport input: predictor_server's bounded line assembly.
// An oversized or never-terminated NDJSON line must not grow memory past
// the cap, must be reported exactly once, and must not poison later
// well-formed requests on the same connection.

TEST(ServeLineBuffer, SplitsChunksIntoLines) {
  serve::LineBuffer buf;
  const std::string bytes = "{\"op\":\"ping\"}\n{\"op\":\"sta";
  buf.append(bytes.data(), bytes.size());
  std::string line;
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
  EXPECT_FALSE(buf.next_line(&line));  // second request still unterminated
  buf.append("ts\"}\n", 5);
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"stats\"}");
  EXPECT_FALSE(buf.take_overflow());
}

TEST(ServeLineBuffer, UnterminatedLineIsCappedAndDiscarded) {
  serve::LineBuffer buf(64);
  const std::string flood(1000, 'x');  // no newline, ever
  for (int i = 0; i < 50; ++i) buf.append(flood.data(), flood.size());
  EXPECT_LE(buf.buffered_bytes(), 64u);  // memory stays bounded
  std::string line;
  EXPECT_FALSE(buf.next_line(&line));
  EXPECT_TRUE(buf.take_overflow());
  EXPECT_FALSE(buf.take_overflow());  // reported once

  // Once the doomed line finally terminates, the stream recovers.
  buf.append("tail\n{\"op\":\"ping\"}\n", 19);
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
  EXPECT_FALSE(buf.next_line(&line));
}

TEST(ServeLineBuffer, OversizedCompleteLineIsDroppedNeighborsSurvive) {
  serve::LineBuffer buf(32);
  const std::string bytes =
      "{\"op\":\"ping\"}\n" + std::string(100, 'y') + "\n{\"op\":\"stats\"}\n";
  buf.append(bytes.data(), bytes.size());
  std::string line;
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
  ASSERT_TRUE(buf.next_line(&line));  // the 100-byte line was skipped
  EXPECT_EQ(line, "{\"op\":\"stats\"}");
  EXPECT_FALSE(buf.next_line(&line));
  EXPECT_TRUE(buf.take_overflow());
}

TEST(ServeLineBuffer, ExactCapLineStillFits) {
  serve::LineBuffer buf(8);
  buf.append("12345678\nok\n", 12);
  std::string line;
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "12345678");
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "ok");
  EXPECT_FALSE(buf.take_overflow());
}

}  // namespace
}  // namespace a3cs
