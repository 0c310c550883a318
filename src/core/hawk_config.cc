#include "src/core/hawk_config.h"

#include <algorithm>
#include <limits>
#include <string>
#include <type_traits>

namespace hawk {
namespace {

// Range-checked narrowing: an out-of-range double -> integer cast is UB and
// would silently bypass Validate()'s fail-loudly contract (e.g.
// Vary("probe_ratio", {-1}) wrapping to 4294967295 and passing validation).
template <typename T>
bool SetIntegerField(T* field, double value) {
  // Exact bounds: 2^63 and 2^64 are representable doubles; the max itself
  // is not (for int64/uint64), so use half-open upper bounds.
  if (value != value) {  // NaN.
    return false;
  }
  if constexpr (std::is_same_v<T, uint32_t>) {
    if (value < 0.0 || value >= 4294967296.0) {
      return false;
    }
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    if (value < 0.0 || value >= 18446744073709551616.0) {
      return false;
    }
  } else {
    static_assert(std::is_same_v<T, int64_t>);
    if (value < -9223372036854775808.0 || value >= 9223372036854775808.0) {
      return false;
    }
  }
  *field = static_cast<T>(value);
  return true;
}

// One row per sweepable field; `set` returns false when the value cannot be
// represented in the field. Kept sorted by name; ConfigFieldNames() returns
// them in this order.
struct FieldSetter {
  std::string_view name;
  bool (*set)(HawkConfig&, double);
};

constexpr FieldSetter kFields[] = {
    {"big_worker_fraction",
     [](HawkConfig& c, double v) {
       c.big_worker_fraction = v;
       return true;
     }},
    {"big_worker_slots",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.big_worker_slots, v); }},
    {"cutoff_us", [](HawkConfig& c, double v) { return SetIntegerField(&c.cutoff_us, v); }},
    {"estimate_noise_hi",
     [](HawkConfig& c, double v) {
       c.estimate_noise_hi = v;
       return true;
     }},
    {"estimate_noise_lo",
     [](HawkConfig& c, double v) {
       c.estimate_noise_lo = v;
       return true;
     }},
    {"fault_seed", [](HawkConfig& c, double v) { return SetIntegerField(&c.fault_seed, v); }},
    {"message_delay_jitter_us",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.message_delay_jitter_us, v); }},
    {"message_loss_rate",
     [](HawkConfig& c, double v) {
       c.message_loss_rate = v;
       return true;
     }},
    {"net_delay_us",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.net_delay_us, v); }},
    {"num_workers",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.num_workers, v); }},
    {"probe_ratio",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.probe_ratio, v); }},
    {"retry_budget",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.retry_budget, v); }},
    {"seed", [](HawkConfig& c, double v) { return SetIntegerField(&c.seed, v); }},
    {"short_partition_fraction",
     [](HawkConfig& c, double v) {
       c.short_partition_fraction = v;
       return true;
     }},
    {"sim_shards",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.sim_shards, v); }},
    {"sim_threads",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.sim_threads, v); }},
    {"slots_per_worker",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.slots_per_worker, v); }},
    {"speculation_threshold",
     [](HawkConfig& c, double v) {
       c.speculation_threshold = v;
       return true;
     }},
    {"steal_cap", [](HawkConfig& c, double v) { return SetIntegerField(&c.steal_cap, v); }},
    {"steal_retry_interval_us",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.steal_retry_interval_us, v); }},
    {"straggler_rate",
     [](HawkConfig& c, double v) {
       c.straggler_rate = v;
       return true;
     }},
    {"straggler_slowdown_factor",
     [](HawkConfig& c, double v) {
       c.straggler_slowdown_factor = v;
       return true;
     }},
    {"use_centralized_long",
     [](HawkConfig& c, double v) {
       c.use_centralized_long = v != 0.0;
       return true;
     }},
    {"use_partition",
     [](HawkConfig& c, double v) {
       c.use_partition = v != 0.0;
       return true;
     }},
    {"use_stealing",
     [](HawkConfig& c, double v) {
       c.use_stealing = v != 0.0;
       return true;
     }},
    {"util_sample_period_us",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.util_sample_period_us, v); }},
    {"worker_churn_rate",
     [](HawkConfig& c, double v) {
       c.worker_churn_rate = v;
       return true;
     }},
    {"worker_crash_rate",
     [](HawkConfig& c, double v) {
       c.worker_crash_rate = v;
       return true;
     }},
    {"worker_downtime_us",
     [](HawkConfig& c, double v) { return SetIntegerField(&c.worker_downtime_us, v); }},
};

}  // namespace

uint32_t HawkConfig::GeneralCount() const {
  if (!use_partition) {
    return num_workers;
  }
  const auto short_count =
      static_cast<uint32_t>(static_cast<double>(num_workers) * short_partition_fraction);
  // Never let the general partition vanish entirely.
  return num_workers > short_count ? num_workers - short_count : 1;
}

Status HawkConfig::Validate() const {
  if (num_workers == 0) {
    return Status::Error("num_workers must be nonzero");
  }
  if (probe_ratio < 1) {
    return Status::Error("probe_ratio must be >= 1 (got 0)");
  }
  if (slots_per_worker < 1 || slots_per_worker > kMaxSlotsPerWorker) {
    return Status::Error("slots_per_worker must be in [1, " +
                         std::to_string(kMaxSlotsPerWorker) + "], got " +
                         std::to_string(slots_per_worker));
  }
  if (!(big_worker_fraction >= 0.0 && big_worker_fraction <= 1.0)) {
    return Status::Error("big_worker_fraction must be in [0, 1], got " +
                         std::to_string(big_worker_fraction));
  }
  if (big_worker_fraction > 0.0 &&
      (big_worker_slots < 1 || big_worker_slots > kMaxSlotsPerWorker)) {
    return Status::Error("big_worker_slots must be in [1, " +
                         std::to_string(kMaxSlotsPerWorker) +
                         "] when big_worker_fraction > 0, got " +
                         std::to_string(big_worker_slots));
  }
  {
    // Exact layout total (not a worst-case bound): heterogeneous fleets are
    // rejected only when their actual slot count overflows.
    const SlotSpec spec = Slots();
    const uint64_t big = spec.BigWorkerCount(num_workers);
    const uint64_t total = (static_cast<uint64_t>(num_workers) - big) * slots_per_worker +
                           big * big_worker_slots;
    if (total > std::numeric_limits<uint32_t>::max()) {
      return Status::Error("total slot count (" + std::to_string(total) +
                           ") overflows the 32-bit slot-index space");
    }
  }
  if (!(short_partition_fraction >= 0.0 && short_partition_fraction < 1.0)) {
    return Status::Error("short_partition_fraction must be in [0, 1), got " +
                         std::to_string(short_partition_fraction));
  }
  if (!(estimate_noise_lo >= 0.0)) {
    return Status::Error("estimate_noise_lo must be >= 0, got " +
                         std::to_string(estimate_noise_lo));
  }
  if (!(estimate_noise_lo <= estimate_noise_hi)) {
    return Status::Error("estimate_noise_lo (" + std::to_string(estimate_noise_lo) +
                         ") must be <= estimate_noise_hi (" + std::to_string(estimate_noise_hi) +
                         ")");
  }
  if (cutoff_us < 0) {
    return Status::Error("cutoff_us must be >= 0");
  }
  if (net_delay_us < 0) {
    return Status::Error("net_delay_us must be >= 0");
  }
  if (steal_retry_interval_us < 0) {
    return Status::Error("steal_retry_interval_us must be >= 0");
  }
  if (util_sample_period_us <= 0) {
    return Status::Error("util_sample_period_us must be > 0");
  }
  if (!(worker_crash_rate >= 0.0)) {
    return Status::Error("worker_crash_rate must be >= 0, got " +
                         std::to_string(worker_crash_rate));
  }
  if (!(worker_churn_rate >= 0.0)) {
    return Status::Error("worker_churn_rate must be >= 0, got " +
                         std::to_string(worker_churn_rate));
  }
  if ((worker_crash_rate > 0.0 || worker_churn_rate > 0.0) && worker_downtime_us <= 0) {
    return Status::Error("worker_downtime_us must be > 0 when crash/churn rates are set");
  }
  // Loss strictly below 1: retransmission terminates with probability 1 and
  // the expected retry chain stays finite.
  if (!(message_loss_rate >= 0.0 && message_loss_rate < 1.0)) {
    return Status::Error("message_loss_rate must be in [0, 1), got " +
                         std::to_string(message_loss_rate));
  }
  if (message_delay_jitter_us < 0) {
    return Status::Error("message_delay_jitter_us must be >= 0");
  }
  if (!(straggler_rate >= 0.0 && straggler_rate <= 1.0)) {
    return Status::Error("straggler_rate must be in [0, 1], got " +
                         std::to_string(straggler_rate));
  }
  if (straggler_rate > 0.0 && !(straggler_slowdown_factor > 1.0)) {
    return Status::Error(
        "straggler_slowdown_factor must be > 1 when straggler_rate > 0, got " +
        std::to_string(straggler_slowdown_factor));
  }
  if (!(speculation_threshold >= 0.0)) {
    return Status::Error("speculation_threshold must be >= 0, got " +
                         std::to_string(speculation_threshold));
  }
  if (retry_budget < 1) {
    return Status::Error("retry_budget must be >= 1 (got 0)");
  }
  if (sim_shards < 1) {
    return Status::Error("sim_shards must be >= 1 (got 0)");
  }
  if (sim_shards > 1) {
    if (sim_shards > num_workers) {
      return Status::Error("sim_shards (" + std::to_string(sim_shards) +
                           ") must not exceed num_workers (" + std::to_string(num_workers) +
                           "); every shard needs at least one worker");
    }
    // The sharded executor's safe horizon is the one-way network delay: all
    // cross-worker effects take at least one delivery, so each shard can
    // advance net_delay_us of virtual time between barriers. A zero delay
    // leaves no conservative window.
    if (net_delay_us < 1) {
      return Status::Error("sim_shards > 1 requires net_delay_us >= 1 (the horizon)");
    }
  }
  return Status::Ok();
}

Status SetConfigField(HawkConfig* config, std::string_view field, double value) {
  for (const FieldSetter& setter : kFields) {
    if (setter.name == field) {
      if (!setter.set(*config, value)) {
        return Status::Error("value " + std::to_string(value) +
                             " is out of range for config field '" + std::string(field) + "'");
      }
      return Status::Ok();
    }
  }
  std::string known;
  for (const FieldSetter& setter : kFields) {
    known += known.empty() ? "" : ", ";
    known += setter.name;
  }
  return Status::Error("unknown config field '" + std::string(field) + "'; known fields: " +
                       known);
}

std::vector<std::string_view> ConfigFieldNames() {
  std::vector<std::string_view> names;
  names.reserve(std::size(kFields));
  for (const FieldSetter& setter : kFields) {
    names.push_back(setter.name);
  }
  return names;
}

}  // namespace hawk
