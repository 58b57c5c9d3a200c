// Deterministic fleet-level fault injection (docs/FLEET.md), the
// process-granular sibling of guard::FaultInjector. The supervisor parses a
// fault plan from the environment and arms each fault exactly once:
//
//   A3CS_FLEET_KILL="k@i[,k@i...]"   worker k hard-exits (_Exit) at iter i
//   A3CS_FLEET_HANG="k@i[,...]"      worker k stops heartbeating at iter i
//                                    (sleeps forever; the supervisor's
//                                    heartbeat timeout must SIGKILL it)
//   A3CS_FLEET_DIVERGE="k@i[,...]"   worker k raises guard::GuardAbort at
//                                    iter i (the watchdog's abort path)
//   A3CS_FLEET_CORRUPT_TIP="k[,...]" before worker k's first restart, its
//                                    newest checkpoint is truncated to half
//                                    size — resume must fall back down the
//                                    A3CK ring
//
// kill/hang/diverge are delivered as --kill-at/--hang-at/--diverge-at worker
// flags on the FIRST launch only, so a restarted worker runs clean and the
// fault fires exactly once per plan entry. Corruption is applied by the
// supervisor itself (the worker is dead at that point).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace a3cs::fleet {

class FleetFaultInjector {
 public:
  // Parses the A3CS_FLEET_* plan from the environment (util::parse_plan
  // grammar). Malformed entries throw util::InputError — a typo'd fault
  // plan must never pass silently as "no faults".
  static FleetFaultInjector from_env();

  // Parses explicit strings (tests). Empty strings mean "no faults".
  static FleetFaultInjector parse(const std::string& kill,
                                  const std::string& hang,
                                  const std::string& diverge,
                                  const std::string& corrupt_tip);

  // 0 when no fault is planned for this shard.
  std::int64_t kill_at(int shard) const;
  std::int64_t hang_at(int shard) const;
  std::int64_t diverge_at(int shard) const;
  bool corrupt_tip(int shard) const;

  bool any() const;

 private:
  std::map<int, std::int64_t> kill_, hang_, diverge_;
  std::set<int> corrupt_;
};

}  // namespace a3cs::fleet
