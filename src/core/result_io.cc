#include "core/result_io.h"

#include <fstream>

#include "accel/config_io.h"
#include "util/config.h"
#include "util/logging.h"

namespace a3cs::core {

void save_result(const std::string& path, const SavedResult& result) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_result: cannot open " + path);
  out << "game=" << result.game << "\n"
      << "arch=" << result.arch.to_string() << "\n"
      << "accel=" << accel::encode_config(result.accelerator) << "\n"
      << "test_score=" << result.test_score << "\n"
      << "fps=" << result.fps << "\n"
      << "dsp=" << result.dsp << "\n";
  if (!out) throw std::runtime_error("save_result: write failed " + path);
}

SavedResult load_result(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_result: cannot open " + path);
  SavedResult result;
  bool have_arch = false, have_accel = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    A3CS_CHECK(eq != std::string::npos,
               "load_result: malformed line '" + line + "'");
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    if (key == "game") {
      result.game = value;
    } else if (key == "arch") {
      result.arch = nas::DerivedArch::from_string(value);
      have_arch = true;
    } else if (key == "accel") {
      result.accelerator = accel::decode_config(value);
      have_accel = true;
    } else if (key == "test_score") {
      result.test_score =
          util::parse_double(key, value, -util::kDoubleMax, util::kDoubleMax);
    } else if (key == "fps") {
      result.fps = util::parse_double(key, value, 0, util::kDoubleMax);
    } else if (key == "dsp") {
      result.dsp =
          static_cast<int>(util::parse_int(key, value, 0, util::kIntMax));
    } else {
      throw std::runtime_error("load_result: unknown key '" + key + "'");
    }
  }
  A3CS_CHECK(have_arch && have_accel,
             "load_result: missing arch or accel in " + path);
  return result;
}

}  // namespace a3cs::core
