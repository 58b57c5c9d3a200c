#include "obs/obs_config.h"

#include "util/config.h"

namespace a3cs::obs {

ObsConfig ObsConfig::with_env_overrides() const {
  ObsConfig out = *this;
  const std::string path = util::env_string("A3CS_TRACE_PATH", "");
  if (!path.empty()) {
    out.trace_path = path;
    out.trace_enabled = true;
  }
  out.trace_enabled = util::env_flag("A3CS_TRACE", out.trace_enabled);
  if (out.trace_enabled && out.trace_path.empty()) {
    out.trace_path = "a3cs_trace.jsonl";
  }
  out.trace_flush_every = static_cast<int>(util::env_int(
      "A3CS_TRACE_FLUSH_EVERY", out.trace_flush_every, 1, util::kIntMax));
  out.trace_every = static_cast<int>(
      util::env_int("A3CS_TRACE_EVERY", out.trace_every, 1, util::kIntMax));
  out.profile_enabled = util::env_flag("A3CS_PROFILE", out.profile_enabled);
  out.profile_summary =
      util::env_flag("A3CS_PROFILE_SUMMARY", out.profile_summary);
  out.profile_chrome_path =
      util::env_string("A3CS_PROFILE_CHROME", out.profile_chrome_path);
  if (!out.profile_chrome_path.empty()) out.profile_enabled = true;
  return out;
}

}  // namespace a3cs::obs
