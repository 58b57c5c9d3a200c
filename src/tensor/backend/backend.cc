#include "tensor/backend/backend.h"

#include <atomic>

#include "util/config.h"
#include "util/logging.h"

namespace a3cs::tensor::backend {

namespace {

// The active-backend slot. Function-local so first use from any TU is safe;
// atomic so a bench thread swapping backends at a phase boundary is a data
// race-free publish (kernel shards only ever load it).
std::atomic<const Backend*>& active_slot() {
  static std::atomic<const Backend*> slot{nullptr};
  return slot;
}

const Backend* resolve(const std::string& name) {
  if (name == "scalar") return &scalar_backend();
  if (name == "avx2") return avx2_backend();
  if (name == "auto") {
    if (const Backend* b = avx2_backend()) return b;
    return &scalar_backend();
  }
  return nullptr;
}

}  // namespace

bool cpu_supports_avx2() { return avx2_backend() != nullptr; }

const Backend& active() {
  const Backend* b = active_slot().load(std::memory_order_acquire);
  if (b == nullptr) {
    select_from_env();
    b = active_slot().load(std::memory_order_acquire);
  }
  return *b;
}

bool select(const std::string& name) {
  const Backend* b = resolve(name);
  if (b == nullptr) return false;
  active_slot().store(b, std::memory_order_release);
  return true;
}

void select_from_env() {
  const std::string raw = util::env_string("A3CS_BACKEND", "");
  const Backend* b = resolve(raw.empty() ? "scalar" : raw);
  if (b == nullptr && raw != "avx2") {
    throw util::InputError("A3CS_BACKEND", raw, "scalar|avx2|auto");
  }
  if (b == nullptr) {
    // A fact about the host, not a typo: run, but say so.
    A3CS_LOG(WARN) << "A3CS_BACKEND=avx2 unsupported on this host; "
                      "falling back to scalar";
    b = &scalar_backend();
  }
  active_slot().store(b, std::memory_order_release);
}

std::vector<std::string> available_names() {
  std::vector<std::string> names{"scalar"};
  if (avx2_backend() != nullptr) names.emplace_back("avx2");
  return names;
}

ScopedBackend::ScopedBackend(const Backend& b)
    : prev_(active_slot().load(std::memory_order_acquire)) {
  if (prev_ == nullptr) prev_ = &scalar_backend();
  active_slot().store(&b, std::memory_order_release);
}

ScopedBackend::~ScopedBackend() {
  active_slot().store(prev_, std::memory_order_release);
}

}  // namespace a3cs::tensor::backend
