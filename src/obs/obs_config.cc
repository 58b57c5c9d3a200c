#include "obs/obs_config.h"

#include "util/config.h"

namespace a3cs::obs {

ObsConfig ObsConfig::with_env_overrides() const {
  ObsConfig out = *this;
  out.trace_path = util::env_string("A3CS_TRACE_PATH", out.trace_path);
  out.trace_every = static_cast<int>(
      util::env_int("A3CS_TRACE_EVERY", out.trace_every, 1, util::kIntMax));
  out.profile_enabled = util::env_flag("A3CS_PROFILE", out.profile_enabled);
  out.profile_chrome_path =
      util::env_string("A3CS_PROFILE_CHROME", out.profile_chrome_path);
  if (!out.profile_chrome_path.empty()) out.profile_enabled = true;
  return out;
}

}  // namespace a3cs::obs
