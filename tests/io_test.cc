#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "accel/config_io.h"
#include "accel/predictor.h"
#include "accel/space.h"
#include "core/result_io.h"
#include "nn/zoo.h"
#include "tensor/serialize.h"
#include "util/state_io.h"

namespace a3cs {
namespace {

using accel::AcceleratorConfig;
using accel::AcceleratorSpace;

// ------------------------------------------------------------ config IO ---

class ConfigIoFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ConfigIoFuzzTest, RandomConfigsRoundTrip) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 11);
  const int chunks = 1 + rng.uniform_int(6);
  const int groups = 1 + rng.uniform_int(20);
  AcceleratorSpace space(chunks, groups);
  const AcceleratorConfig cfg = space.decode(space.random_choices(rng));

  const AcceleratorConfig back = accel::decode_config(accel::encode_config(cfg));
  ASSERT_EQ(back.num_chunks(), cfg.num_chunks());
  ASSERT_EQ(back.group_to_chunk, cfg.group_to_chunk);
  for (int c = 0; c < cfg.num_chunks(); ++c) {
    const auto& a = cfg.chunks[static_cast<std::size_t>(c)];
    const auto& b = back.chunks[static_cast<std::size_t>(c)];
    EXPECT_EQ(a.pe_rows, b.pe_rows);
    EXPECT_EQ(a.pe_cols, b.pe_cols);
    EXPECT_EQ(a.noc, b.noc);
    EXPECT_EQ(a.dataflow, b.dataflow);
    EXPECT_EQ(a.tile_oc, b.tile_oc);
    EXPECT_EQ(a.tile_ic, b.tile_ic);
    EXPECT_NEAR(a.split.input, b.split.input, 1e-6);
    EXPECT_NEAR(a.split.weight, b.split.weight, 1e-6);
    EXPECT_NEAR(a.split.output, b.split.output, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Fuzz, ConfigIoFuzzTest, ::testing::Range(0, 12));

TEST(ConfigIo, RoundTripPreservesPredictorEvaluation) {
  util::Rng rng(99);
  const auto specs = nn::zoo_model_specs("ResNet-14", nn::ObsSpec{3, 12, 12}, 4);
  AcceleratorSpace space(4, nn::num_groups(specs));
  const auto cfg = space.decode(space.random_choices(rng));
  const auto back = accel::decode_config(accel::encode_config(cfg));
  accel::Predictor pred;
  EXPECT_DOUBLE_EQ(pred.evaluate(specs, cfg).ii_cycles,
                   pred.evaluate(specs, back).ii_cycles);
  EXPECT_DOUBLE_EQ(pred.evaluate(specs, cfg).energy_nj,
                   pred.evaluate(specs, back).energy_nj);
}

TEST(ConfigIo, FileRoundTrip) {
  util::Rng rng(7);
  AcceleratorSpace space(2, 3);
  const auto cfg = space.decode(space.random_choices(rng));
  const std::string path = ::testing::TempDir() + "/a3cs_accel.cfg";
  accel::save_config(path, cfg);
  const auto back = accel::load_config(path);
  EXPECT_EQ(accel::encode_config(back), accel::encode_config(cfg));
  std::filesystem::remove(path);
}

TEST(ConfigIo, RejectsMalformedInput) {
  EXPECT_THROW(accel::decode_config(""), std::runtime_error);
  EXPECT_THROW(accel::decode_config("chunks=1;alloc=0"), std::runtime_error);
  EXPECT_THROW(accel::decode_config("chunks=2;alloc=0;chunk=4x4"),
               std::runtime_error);
  EXPECT_THROW(
      accel::decode_config("chunks=1;alloc=5;chunk=4x4,noc=0,df=0,toc=8,"
                           "tic=8,split=0.3:0.3:0.4"),
      std::runtime_error);
  EXPECT_THROW(accel::decode_config("bogus=1"), std::runtime_error);
}

// A valid single-chunk encoding whose fields the tests below corrupt one at
// a time.
std::string valid_chunk_encoding() {
  util::Rng rng(21);
  AcceleratorSpace space(1, 2);
  return accel::encode_config(space.decode(space.random_choices(rng)));
}

TEST(ConfigIo, RejectsOutOfRangeAndTruncatedFields) {
  const std::string good = valid_chunk_encoding();
  ASSERT_NO_THROW(accel::decode_config(good));

  // stoi/stod throw std::invalid_argument on fully non-numeric tokens, so
  // accept any exception type — never a silently parsed config.
  auto corrupt = [&](const std::string& field, const std::string& repl) {
    const std::size_t at = good.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    std::string bad = good;
    bad.replace(at, field.size(), repl);
    EXPECT_ANY_THROW(accel::decode_config(bad)) << repl;
  };
  corrupt("noc=", "noc=9,x=");       // out-of-range NoC id
  corrupt("df=", "df=7,x=");         // out-of-range dataflow id
  corrupt("split=", "split=0.5:");   // split with too few parts
  corrupt("chunks=", "chunks=zz,");  // non-numeric integer
  corrupt("toc=", "weird=8,x=");     // unknown per-chunk field

  // Strings cut off mid-token (as a torn write would leave them) must not
  // parse as smaller valid configs.
  EXPECT_ANY_THROW(accel::decode_config("chunks=1;alloc="));
  EXPECT_ANY_THROW(accel::decode_config("chunks=1;alloc=0;chunk=4x"));
  EXPECT_ANY_THROW(accel::decode_config("chunks=1;alloc=0;chunk=4x4,noc="));
}

// ------------------------------------------------------- tensor formats ---

TEST(TensorFormat, RejectsUnknownVersionAndBadMagic) {
  const tensor::Tensor t({2, 3}, 0.5f);
  std::ostringstream oss;
  tensor::write_tensor(oss, t);
  const std::string good = oss.str();

  {  // Flip the version byte (offset 4, right after the "A3CT" magic).
    std::string bad = good;
    bad[4] = 2;
    std::istringstream in(bad);
    try {
      tensor::read_tensor(in);
      FAIL() << "unknown A3CT version accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
    }
  }
  {  // Corrupt the magic.
    std::string bad = good;
    bad[0] = 'X';
    std::istringstream in(bad);
    EXPECT_THROW(tensor::read_tensor(in), std::runtime_error);
  }
  {  // Truncate inside the payload.
    std::istringstream in(good.substr(0, good.size() - 3));
    EXPECT_THROW(tensor::read_tensor(in), std::runtime_error);
  }
}

TEST(TensorFormat, NamedContainerRejectsUnknownVersion) {
  std::ostringstream oss;
  tensor::write_tensors(oss, {{"w", tensor::Tensor({2}, 1.0f)},
                              {"b", tensor::Tensor({1}, 2.0f)}});
  std::string bad = oss.str();
  bad[4] = 9;  // version byte follows the "A3CF" magic
  std::istringstream in(bad);
  try {
    tensor::read_tensors(in);
    FAIL() << "unknown A3CF version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

// ------------------------------------------------------------ result IO ---

// A length prefix is a claim, not a budget: a stream declaring 0xFFFFFFFF
// entries but holding 3 bytes must throw, never allocate the declared size.
TEST(BinaryCodec, HugeDeclaredLengthOnShortStreamThrows) {
  const std::string huge_len("\xFF\xFF\xFF\xFF" "abc", 7);
  const auto stream = [&] { return std::istringstream(huge_len); };
  auto s1 = stream();
  EXPECT_THROW(util::sio::get_string(s1), std::runtime_error);
  auto s2 = stream();
  EXPECT_THROW(util::sio::get_f64_vec(s2), std::runtime_error);
  auto s3 = stream();
  EXPECT_THROW(util::sio::get_i32_vec(s3), std::runtime_error);
  auto s4 = stream();
  EXPECT_THROW(util::sio::get_bool_vec(s4), std::runtime_error);
  std::istringstream file(std::string("A3CF\x01", 5) + huge_len);
  EXPECT_THROW(tensor::read_tensors(file), std::runtime_error);
  // A tensor whose shape claims ~1G floats over a 3-byte payload.
  std::istringstream record(std::string("A3CT\x01\x01\x00\x00\x00", 9) +
                            "\xFF\xFF\xFF\x3F" + "abc");
  EXPECT_THROW(tensor::read_tensor(record), std::runtime_error);
  // Four ~2^31 dims: the element count would overflow int64.
  std::string dims4 = std::string("A3CT\x01\x04\x00\x00\x00", 9);
  for (int i = 0; i < 4; ++i) dims4 += std::string("\xFF\xFF\xFF\x7F", 4);
  std::istringstream overflow(dims4 + "abc");
  EXPECT_THROW(tensor::read_tensor(overflow), std::runtime_error);
}

TEST(ResultIo, RoundTrip) {
  core::SavedResult result;
  result.game = "Breakout";
  result.arch = nas::DerivedArch::from_string("conv3-skip-ir5x3");
  util::Rng rng(3);
  AcceleratorSpace space(2, 5);
  result.accelerator = space.decode(space.random_choices(rng));
  result.test_score = 123.5;
  result.fps = 45678.0;

  const std::string path = ::testing::TempDir() + "/a3cs_result.txt";
  core::save_result(path, result);
  const auto back = core::load_result(path);
  EXPECT_EQ(back.game, "Breakout");
  EXPECT_EQ(back.arch.to_string(), "conv3-skip-ir5x3");
  EXPECT_EQ(accel::encode_config(back.accelerator),
            accel::encode_config(result.accelerator));
  EXPECT_DOUBLE_EQ(back.test_score, 123.5);
  EXPECT_DOUBLE_EQ(back.fps, 45678.0);
  std::filesystem::remove(path);
}

TEST(ResultIo, MissingFieldsRejected) {
  const std::string path = ::testing::TempDir() + "/a3cs_bad_result.txt";
  {
    std::ofstream out(path);
    out << "game=Pong\ntest_score=1\n";
  }
  EXPECT_THROW(core::load_result(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(ResultIo, MissingFileRejected) {
  EXPECT_THROW(core::load_result("/nonexistent/res.txt"), std::runtime_error);
}

TEST(ResultIo, MalformedLinesRejected) {
  const std::string path = ::testing::TempDir() + "/a3cs_malformed_result.txt";
  const std::vector<std::string> bodies = {
      "game=Pong\nthis line has no equals sign\n",
      "game=Pong\nmystery_key=42\narch=conv3\n",
      "arch=not a real arch string !!\naccel=chunks=1;alloc=0\n",
  };
  for (const std::string& body : bodies) {
    {
      std::ofstream out(path);
      out << body;
    }
    EXPECT_THROW(core::load_result(path), std::runtime_error) << body;
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace a3cs
