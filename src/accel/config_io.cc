#include "accel/config_io.h"

#include <fstream>
#include <sstream>

#include "util/config.h"
#include "util/logging.h"

namespace a3cs::accel {
std::string encode_config(const AcceleratorConfig& config) {
  std::ostringstream oss;
  // max_digits10 so the buffer-split doubles survive decode(encode(cfg))
  // byte-identically — the encoded text is the canonical form behind the
  // serving layer's cache keys, where a ULP of drift would make the same
  // config hash differently after a wire round trip (docs/SERVING.md).
  oss.precision(17);
  oss << "chunks=" << config.num_chunks() << ";alloc=";
  for (std::size_t i = 0; i < config.group_to_chunk.size(); ++i) {
    if (i > 0) oss << ",";
    oss << config.group_to_chunk[i];
  }
  for (const ChunkConfig& c : config.chunks) {
    oss << ";chunk=" << c.pe_rows << "x" << c.pe_cols
        << ",noc=" << static_cast<int>(c.noc)
        << ",df=" << static_cast<int>(c.dataflow) << ",toc=" << c.tile_oc
        << ",tic=" << c.tile_ic << ",split=" << c.split.input << ":"
        << c.split.weight << ":" << c.split.output;
  }
  return oss.str();
}

AcceleratorConfig decode_config(const std::string& encoded) {
  // Every number is a whole non-negative int, or a finite split fraction.
  const auto int_field = [](std::string_view field, const std::string& s,
                            std::int64_t hi = util::kIntMax) {
    return static_cast<int>(util::parse_int(field, s, 0, hi));
  };
  AcceleratorConfig config;
  int declared_chunks = -1;
  for (const std::string& token : util::split(encoded, ';')) {
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    A3CS_CHECK(eq != std::string::npos,
               "decode_config: missing '=' in '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "chunks") {
      declared_chunks = int_field(key, value);
    } else if (key == "alloc") {
      for (const std::string& g : util::split(value, ',')) {
        if (!g.empty()) config.group_to_chunk.push_back(int_field(key, g));
      }
    } else if (key == "chunk") {
      ChunkConfig chunk;
      for (const std::string& field : util::split(value, ',')) {
        const std::size_t feq = field.find('=');
        if (feq == std::string::npos) {
          // The leading "RxC" geometry token.
          const auto dims = util::split(field, 'x');
          A3CS_CHECK(dims.size() == 2, "decode_config: bad PE dims '" +
                                           field + "'");
          chunk.pe_rows = int_field("PE rows", dims[0]);
          chunk.pe_cols = int_field("PE cols", dims[1]);
          continue;
        }
        const std::string fkey = field.substr(0, feq);
        const std::string fval = field.substr(feq + 1);
        if (fkey == "noc") {
          chunk.noc = static_cast<Noc>(int_field(fkey, fval, 2));
        } else if (fkey == "df") {
          chunk.dataflow = static_cast<Dataflow>(int_field(fkey, fval, 2));
        } else if (fkey == "toc") {
          chunk.tile_oc = int_field(fkey, fval);
        } else if (fkey == "tic") {
          chunk.tile_ic = int_field(fkey, fval);
        } else if (fkey == "split") {
          const auto parts = util::split(fval, ':');
          A3CS_CHECK(parts.size() == 3, "decode_config: bad split");
          const auto frac = [&](int k) {
            return util::parse_double(fkey, parts[k], 0, util::kDoubleMax);
          };
          chunk.split = BufferSplit{frac(0), frac(1), frac(2)};
        } else {
          throw std::runtime_error("decode_config: unknown field '" + fkey +
                                   "'");
        }
      }
      A3CS_CHECK(chunk.pe_rows > 0 && chunk.pe_cols > 0,
                 "decode_config: chunk missing PE dims");
      config.chunks.push_back(chunk);
    } else {
      throw std::runtime_error("decode_config: unknown key '" + key + "'");
    }
  }
  A3CS_CHECK(!config.chunks.empty(), "decode_config: no chunks");
  A3CS_CHECK(declared_chunks == config.num_chunks(),
             "decode_config: chunk count mismatch");
  for (int g : config.group_to_chunk) {
    A3CS_CHECK(g >= 0 && g < config.num_chunks(),
               "decode_config: allocation to nonexistent chunk");
  }
  return config;
}

void save_config(const std::string& path, const AcceleratorConfig& config) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_config: cannot open " + path);
  out << encode_config(config) << "\n";
}

AcceleratorConfig load_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_config: cannot open " + path);
  std::string line;
  std::getline(in, line);
  return decode_config(line);
}

}  // namespace a3cs::accel
