#include "obs/perf/work_counters.h"

#include <array>
#include <map>
#include <string_view>

#include "obs/perf/chrome_trace.h"
#include "obs/trace.h"

namespace a3cs::obs::perf {

namespace {
constexpr std::string_view kPrefix = "work.";
}  // namespace

WorkCounters WorkCounters::named(const std::string& kernel) {
  MetricsRegistry& metrics = MetricsRegistry::global();
  const std::string prefix = std::string(kPrefix) + kernel;
  return {metrics.counter(prefix + ".flops"),
          metrics.counter(prefix + ".bytes_read"),
          metrics.counter(prefix + ".bytes_written")};
}

void WorkCounters::add(std::int64_t flop_count, std::int64_t read,
                       std::int64_t written) const {
  flops.inc(flop_count);
  bytes_read.inc(read);
  bytes_written.inc(written);
  chrome_annotate_work(flop_count, read, written);
}

void record_work_metrics() {
  if (!trace_active()) return;
  // kernel -> {flops, bytes_read, bytes_written}; std::map keeps the events
  // in kernel-name order.
  std::map<std::string, std::array<std::int64_t, 3>> kernels;
  for (const auto& [name, value] :
       MetricsRegistry::global().snapshot().counters) {
    if (name.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    const std::size_t dot = name.rfind('.');
    const std::string_view field = std::string_view(name).substr(dot + 1);
    auto& totals = kernels[name.substr(kPrefix.size(), dot - kPrefix.size())];
    totals[field == "flops" ? 0 : field == "bytes_read" ? 1 : 2] = value;
  }
  for (const auto& [kernel, t] : kernels) {
    const auto [flops, bytes_read, bytes_written] = t;
    if (flops == 0 && bytes_read == 0 && bytes_written == 0) continue;
    const std::int64_t bytes = bytes_read + bytes_written;
    trace_event("work")
        .kv("kernel", kernel)
        .kv("flops", flops)
        .kv("bytes_read", bytes_read)
        .kv("bytes_written", bytes_written)
        .kv("intensity", bytes > 0 ? static_cast<double>(flops) /
                                         static_cast<double>(bytes)
                                   : 0.0);
  }
}

}  // namespace a3cs::obs::perf
