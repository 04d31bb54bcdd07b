#include "fabric/fault.h"

#include <string>

namespace dpu::fabric {

FaultPlan::FaultPlan(const machine::FaultSpec& spec, const machine::ClusterSpec& cluster,
                     metrics::MetricsRegistry& reg)
    : spec_(spec), reg_(reg) {
  if (spec_.enabled) {
    require(spec_.drop_prob + spec_.dup_prob + spec_.delay_prob <= 1.0,
            "fault probabilities must sum to at most 1");
    reg.link("fault.injected", &injected_);
    reg.link("fault.drops", &drops_);
    reg.link("fault.dups", &dups_);
    reg.link("fault.delays", &delays_);
  }
  for (const auto& pf : spec_.proxy_failures) {
    require(cluster.is_proxy(pf.proxy),
            "proxy failure schedule names a proc that is not a proxy");
    require(pf.at_us >= 0.0, "proxy failure scheduled in the past");
  }
  if (spec_.liveness_enabled()) {
    // Process-failure counters are registry-owned so they exist (at zero)
    // even when no scheduled failure ever fires.
    reg.counter("fault.proxy_crashes");
    reg.counter("fault.proxy_hangs");
    reg.counter("fault.proxy_recoveries");
  }
}

FaultPlan::Decision FaultPlan::decide(int channel, int src_proc, int dst_proc,
                                      bool dst_is_proxy) {
  Decision d;
  if (!spec_.enabled) return d;
  if (channel == kFlagWriteChannel) {
    if (!spec_.fault_flag_writes) return d;
  } else if (!spec_.faults_channel(channel)) {
    return d;
  }
  // Fate = pure function of the message's identity, not of global draw
  // order: same traffic => same fault pattern under any tie scheduling.
  const std::uint64_t k = stream_pos_[{src_proc, dst_proc, channel}]++;
  std::uint64_t st = spec_.seed;
  const auto fold = [&st](std::uint64_t v) {
    st ^= v + 0x9E3779B97f4A7C15ull + (st << 6) + (st >> 2);
  };
  fold(static_cast<std::uint64_t>(src_proc));
  fold(static_cast<std::uint64_t>(dst_proc));
  fold(static_cast<std::uint64_t>(channel + 8));  // kFlagWriteChannel == -2
  fold(k);
  const double u = static_cast<double>(splitmix64(st) >> 11) * 0x1.0p-53;
  const double delay_u = static_cast<double>(splitmix64(st) >> 11) * 0x1.0p-53;
  if (u < spec_.drop_prob) {
    d.drop = true;
    ++drops_;
  } else if (u < spec_.drop_prob + spec_.dup_prob) {
    d.duplicate = true;
    ++dups_;
  } else if (u < spec_.drop_prob + spec_.dup_prob + spec_.delay_prob) {
    d.extra_delay = from_us(delay_u * spec_.max_delay_us);
    ++delays_;
  } else {
    return d;
  }
  ++injected_;
  if (dst_is_proxy) {
    ++reg_.counter("offload.proxy" + std::to_string(dst_proc) + ".faults_injected");
  }
  return d;
}

}  // namespace dpu::fabric
