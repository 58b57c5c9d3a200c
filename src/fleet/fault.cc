#include "fleet/fault.h"

#include "util/config.h"

namespace a3cs::fleet {

FleetFaultInjector FleetFaultInjector::from_env() {
  return parse(util::env_string("A3CS_FLEET_KILL", ""),
               util::env_string("A3CS_FLEET_HANG", ""),
               util::env_string("A3CS_FLEET_DIVERGE", ""),
               util::env_string("A3CS_FLEET_CORRUPT_TIP", ""));
}

FleetFaultInjector FleetFaultInjector::parse(const std::string& kill,
                                             const std::string& hang,
                                             const std::string& diverge,
                                             const std::string& corrupt_tip) {
  // k@i entries: shard k, iteration i (util::parse_plan's A@B).
  const auto at_plan = [](const char* name, const std::string& text) {
    std::map<int, std::int64_t> out;
    for (const auto& [shard, iter] : util::parse_plan(name, text, '@')) {
      if (!iter) throw util::InputError(name, text, "shard@iter entries");
      out[static_cast<int>(shard)] = *iter;
    }
    return out;
  };
  FleetFaultInjector f;
  f.kill_ = at_plan("A3CS_FLEET_KILL", kill);
  f.hang_ = at_plan("A3CS_FLEET_HANG", hang);
  f.diverge_ = at_plan("A3CS_FLEET_DIVERGE", diverge);
  for (const auto& [shard, iter] :
       util::parse_plan("A3CS_FLEET_CORRUPT_TIP", corrupt_tip, '@')) {
    if (iter) {
      throw util::InputError("A3CS_FLEET_CORRUPT_TIP", corrupt_tip,
                             "shard entries");
    }
    f.corrupt_.insert(static_cast<int>(shard));
  }
  return f;
}

std::int64_t FleetFaultInjector::kill_at(int shard) const {
  const auto it = kill_.find(shard);
  return it == kill_.end() ? 0 : it->second;
}

std::int64_t FleetFaultInjector::hang_at(int shard) const {
  const auto it = hang_.find(shard);
  return it == hang_.end() ? 0 : it->second;
}

std::int64_t FleetFaultInjector::diverge_at(int shard) const {
  const auto it = diverge_.find(shard);
  return it == diverge_.end() ? 0 : it->second;
}

bool FleetFaultInjector::corrupt_tip(int shard) const {
  return corrupt_.count(shard) != 0;
}

bool FleetFaultInjector::any() const {
  return !kill_.empty() || !hang_.empty() || !diverge_.empty() ||
         !corrupt_.empty();
}

}  // namespace a3cs::fleet
