#include "tensor/serialize.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "util/state_io.h"

namespace a3cs::tensor {
namespace {

constexpr char kTensorMagic[4] = {'A', '3', 'C', 'T'};
constexpr char kFileMagic[4] = {'A', '3', 'C', 'F'};

namespace sio = util::sio;

void read_and_check_version(std::istream& in, const char* container) {
  const std::uint8_t v = sio::get_u8(in);
  if (v != kSerializeVersion) {
    throw std::runtime_error(
        std::string("tensor deserialize: unsupported ") + container +
        " format version " + std::to_string(v) + " (expected " +
        std::to_string(kSerializeVersion) + ")");
  }
}

// Float payloads are little-endian IEEE-754 bit patterns. On LE hosts (the
// common case) that is the in-memory layout and the buffer is written/read
// in bulk; on BE hosts each element goes through sio's explicit-LE floats.
void write_f32_data(std::ostream& out, const float* data, std::int64_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(n) *
                  static_cast<std::streamsize>(sizeof(float)));
  } else {
    for (std::int64_t i = 0; i < n; ++i) sio::put_f32(out, data[i]);
  }
}

// Reads in bounded chunks, so a corrupt shape cannot allocate more than the
// stream actually holds.
std::vector<float> read_f32_data(std::istream& in, std::int64_t n) {
  constexpr std::int64_t kChunk = 1 << 16;
  std::vector<float> data;
  for (std::int64_t done = 0; done < n;) {
    const std::int64_t take = std::min(kChunk, n - done);
    data.resize(static_cast<std::size_t>(done + take));
    if constexpr (std::endian::native == std::endian::little) {
      in.read(reinterpret_cast<char*>(data.data() + done),
              static_cast<std::streamsize>(take) *
                  static_cast<std::streamsize>(sizeof(float)));
      if (!in) throw std::runtime_error("tensor deserialize: truncated data");
    } else {
      for (std::int64_t i = done; i < done + take; ++i) {
        data[static_cast<std::size_t>(i)] = sio::get_f32(in);
      }
    }
    done += take;
  }
  return data;
}

}  // namespace

void write_tensor(std::ostream& out, const Tensor& t) {
  out.write(kTensorMagic, 4);
  sio::put_u8(out, kSerializeVersion);
  sio::put_u32(out, static_cast<std::uint32_t>(t.shape().rank()));
  for (int i = 0; i < t.shape().rank(); ++i) {
    sio::put_u32(out, static_cast<std::uint32_t>(t.shape()[i]));
  }
  write_f32_data(out, t.data(), t.numel());
}

Tensor read_tensor(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::string(magic, 4) != std::string(kTensorMagic, 4)) {
    throw std::runtime_error("tensor deserialize: bad magic");
  }
  read_and_check_version(in, "A3CT");
  const std::uint32_t rank = sio::get_u32(in);
  if (rank > static_cast<std::uint32_t>(Shape::kMaxRank)) {
    throw std::runtime_error("tensor deserialize: rank too large");
  }
  int dims[Shape::kMaxRank] = {0, 0, 0, 0};
  std::int64_t numel = 1;
  for (std::uint32_t i = 0; i < rank; ++i) {
    // Bound each dim before it narrows to int or multiplies into numel.
    const std::uint32_t d = sio::get_u32(in);
    if (d > (1u << 30) || (d != 0 && numel > (std::int64_t{1} << 40) / d)) {
      throw std::runtime_error("tensor deserialize: implausible shape");
    }
    numel *= d;
    dims[i] = static_cast<int>(d);
  }
  Shape shape;
  switch (rank) {
    case 0: shape = Shape::scalar(); break;
    case 1: shape = Shape({dims[0]}); break;
    case 2: shape = Shape({dims[0], dims[1]}); break;
    case 3: shape = Shape({dims[0], dims[1], dims[2]}); break;
    case 4: shape = Shape({dims[0], dims[1], dims[2], dims[3]}); break;
    default: throw std::runtime_error("tensor deserialize: bad rank");
  }
  return Tensor(shape, read_f32_data(in, numel));
}

void write_tensors(
    std::ostream& out,
    const std::vector<std::pair<std::string, Tensor>>& tensors) {
  out.write(kFileMagic, 4);
  sio::put_u8(out, kSerializeVersion);
  sio::put_u32(out, static_cast<std::uint32_t>(tensors.size()));
  for (const auto& [name, t] : tensors) {
    sio::put_string(out, name);
    write_tensor(out, t);
  }
}

std::vector<std::pair<std::string, Tensor>> read_tensors(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::string(magic, 4) != std::string(kFileMagic, 4)) {
    throw std::runtime_error("read_tensors: bad file magic");
  }
  read_and_check_version(in, "A3CF");
  const std::uint32_t count = sio::get_u32(in);
  std::vector<std::pair<std::string, Tensor>> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = sio::get_string(in);
    out.emplace_back(std::move(name), read_tensor(in));
  }
  return out;
}

void write_tensors(
    const std::string& path,
    const std::vector<std::pair<std::string, Tensor>>& tensors) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_tensors: cannot open " + path);
  write_tensors(out, tensors);
  if (!out) throw std::runtime_error("write_tensors: write failed " + path);
}

std::vector<std::pair<std::string, Tensor>> read_tensors(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_tensors: cannot open " + path);
  try {
    return read_tensors(in);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " in " + path);
  }
}

}  // namespace a3cs::tensor
