#include "util/state_io.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace a3cs::util::sio {
namespace {

void put_le(std::ostream& out, std::uint64_t v, int bytes) {
  char buf[8];
  for (int i = 0; i < bytes; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  out.write(buf, bytes);
}

std::uint64_t get_le(std::istream& in, int bytes) {
  char buf[8];
  in.read(buf, bytes);
  if (!in) throw std::runtime_error("state_io: truncated stream");
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  }
  return v;
}

}  // namespace

void put_u8(std::ostream& out, std::uint8_t v) { put_le(out, v, 1); }
void put_u32(std::ostream& out, std::uint32_t v) { put_le(out, v, 4); }
void put_u64(std::ostream& out, std::uint64_t v) { put_le(out, v, 8); }
void put_i32(std::ostream& out, std::int32_t v) {
  put_le(out, static_cast<std::uint32_t>(v), 4);
}
void put_i64(std::ostream& out, std::int64_t v) {
  put_le(out, static_cast<std::uint64_t>(v), 8);
}

void put_f32(std::ostream& out, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, bits);
}

void put_f64(std::ostream& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_bool(std::ostream& out, bool v) { put_u8(out, v ? 1 : 0); }

void put_string(std::ostream& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void put_rng(std::ostream& out, const Rng& rng) {
  const RngState s = rng.state();
  for (const std::uint64_t w : s.s) put_u64(out, w);
  put_bool(out, s.has_cached_normal);
  put_f64(out, s.cached_normal);
}

std::uint8_t get_u8(std::istream& in) {
  return static_cast<std::uint8_t>(get_le(in, 1));
}
std::uint32_t get_u32(std::istream& in) {
  return static_cast<std::uint32_t>(get_le(in, 4));
}
std::uint64_t get_u64(std::istream& in) { return get_le(in, 8); }
std::int32_t get_i32(std::istream& in) {
  return static_cast<std::int32_t>(get_u32(in));
}
std::int64_t get_i64(std::istream& in) {
  return static_cast<std::int64_t>(get_u64(in));
}

float get_f32(std::istream& in) {
  const std::uint32_t bits = get_u32(in);
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double get_f64(std::istream& in) {
  const std::uint64_t bits = get_u64(in);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool get_bool(std::istream& in) {
  const std::uint8_t v = get_u8(in);
  if (v > 1) throw std::runtime_error("state_io: corrupt bool");
  return v != 0;
}

// Length-prefixed readers grow their result as the bytes arrive, so a
// corrupt length cannot allocate more than the stream actually holds.
std::string get_string(std::istream& in) {
  std::string s;
  char buf[4096];
  for (std::uint32_t left = get_u32(in); left > 0;) {
    const std::uint32_t n = std::min<std::uint32_t>(left, sizeof(buf));
    in.read(buf, n);
    if (!in) throw std::runtime_error("state_io: truncated string");
    s.append(buf, n);
    left -= n;
  }
  return s;
}

void get_rng(std::istream& in, Rng& rng) {
  RngState s;
  for (std::uint64_t& w : s.s) w = get_u64(in);
  s.has_cached_normal = get_bool(in);
  s.cached_normal = get_f64(in);
  rng.set_state(s);
}

void put_i32_vec(std::ostream& out, const std::vector<int>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const int x : v) put_i32(out, x);
}

std::vector<int> get_i32_vec(std::istream& in) {
  std::vector<int> v;
  for (std::uint32_t n = get_u32(in); n > 0; --n) v.push_back(get_i32(in));
  return v;
}

void put_f64_vec(std::ostream& out, const std::vector<double>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const double x : v) put_f64(out, x);
}

std::vector<double> get_f64_vec(std::istream& in) {
  std::vector<double> v;
  for (std::uint32_t n = get_u32(in); n > 0; --n) v.push_back(get_f64(in));
  return v;
}

void put_bool_vec(std::ostream& out, const std::vector<bool>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (const bool x : v) put_bool(out, x);
}

std::vector<bool> get_bool_vec(std::istream& in) {
  std::vector<bool> v;
  for (std::uint32_t n = get_u32(in); n > 0; --n) v.push_back(get_bool(in));
  return v;
}

}  // namespace a3cs::util::sio
