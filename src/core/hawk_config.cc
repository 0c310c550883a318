#include "src/core/hawk_config.h"

#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>

namespace hawk {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One end of a field's valid interval.
struct End {
  double at;
  bool open;
};

constexpr End Closed(double at) { return {at, false}; }
constexpr End Open(double at) { return {at, true}; }

// The member's type decides how SetConfigField converts a double into it.
using Member = std::variant<uint32_t HawkConfig::*, uint64_t HawkConfig::*, int64_t HawkConfig::*,
                            double HawkConfig::*, bool HawkConfig::*>;

// A field's name, where it lives, and the interval Validate() holds it to.
// A row whose ends are both infinite is unconstrained (NaN included); any
// other row rejects NaN.
struct FieldRow {
  std::string_view name;
  Member member;
  End lo = Closed(-kInf);
  End hi = Closed(kInf);
};

// One row per field, sorted by name; ConfigFieldNames() returns this order.
// Rows with no interval are either free or held by a cross-field rule in
// Validate().
constexpr FieldRow kFields[] = {
    {"big_worker_fraction", &HawkConfig::big_worker_fraction, Closed(0), Closed(1)},
    {"big_worker_slots", &HawkConfig::big_worker_slots},
    {"cutoff_us", &HawkConfig::cutoff_us, Closed(0)},
    // Both executors round avg task us x U(lo, hi) to int64 us. Up to 1000x,
    // any average below 9.2e15 us (292 years) keeps that under 2^63; the
    // trace generators cap a task at 5e10 us, which leaves room for 1.8e5
    // such estimates in one worker's waiting-time backlog.
    {"estimate_noise_hi", &HawkConfig::estimate_noise_hi, Closed(-kInf), Closed(1000)},
    // The Estimator behind both executors' classifiers CHECKs lo > 0.
    {"estimate_noise_lo", &HawkConfig::estimate_noise_lo, Open(0)},
    {"fault_seed", &HawkConfig::fault_seed},
    {"message_delay_jitter_us", &HawkConfig::message_delay_jitter_us, Closed(0)},
    // Loss strictly below 1: retransmission terminates with probability 1 and
    // the expected retry chain stays finite.
    {"message_loss_rate", &HawkConfig::message_loss_rate, Closed(0), Open(1)},
    {"net_delay_us", &HawkConfig::net_delay_us, Closed(0)},
    {"num_workers", &HawkConfig::num_workers, Closed(1)},
    {"probe_ratio", &HawkConfig::probe_ratio, Closed(1)},
    {"retry_budget", &HawkConfig::retry_budget, Closed(1)},
    {"seed", &HawkConfig::seed},
    {"short_partition_fraction", &HawkConfig::short_partition_fraction, Closed(0), Open(1)},
    {"sim_shards", &HawkConfig::sim_shards, Closed(1)},
    {"sim_threads", &HawkConfig::sim_threads},
    {"slots_per_worker", &HawkConfig::slots_per_worker, Closed(1), Closed(kMaxSlotsPerWorker)},
    {"speculation_threshold", &HawkConfig::speculation_threshold, Closed(0)},
    {"steal_cap", &HawkConfig::steal_cap},
    {"steal_retry_interval_us", &HawkConfig::steal_retry_interval_us, Closed(0)},
    {"straggler_rate", &HawkConfig::straggler_rate, Closed(0), Closed(1)},
    {"straggler_slowdown_factor", &HawkConfig::straggler_slowdown_factor},
    {"use_centralized_long", &HawkConfig::use_centralized_long},
    {"util_sample_period_us", &HawkConfig::util_sample_period_us, Open(0)},
    {"worker_churn_rate", &HawkConfig::worker_churn_rate, Closed(0)},
    {"worker_crash_rate", &HawkConfig::worker_crash_rate, Closed(0)},
    {"worker_downtime_us", &HawkConfig::worker_downtime_us},
};

constexpr bool SortedAndUnique(size_t i = 1) {
  return i >= std::size(kFields) ||
         (kFields[i - 1].name < kFields[i].name && SortedAndUnique(i + 1));
}
static_assert(SortedAndUnique(), "kFields must be sorted by name, with no duplicates");

// Stores `value` into `field`; false when the field's type cannot hold it.
// Integer fields truncate, and a bool is true when `value` is nonzero. The
// integer range check matters: an out-of-range double -> integer cast is UB
// and would silently bypass Validate()'s fail-loudly contract (e.g.
// Vary("probe_ratio", {-1}) wrapping to 4294967295 and passing validation).
template <typename T>
bool Assign(T* field, double value) {
  if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    // [min, 2^digits): both ends are exact doubles, unlike the type's max.
    constexpr double kLowest = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double kBeyond = 2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
    if (!(value >= kLowest && value < kBeyond)) {  // NaN fails too.
      return false;
    }
  }
  *field = static_cast<T>(value);
  return true;
}

// The row's interval check on `member`, written so that NaN fails every
// comparison.
template <typename T>
Status CheckRange(const HawkConfig& config, T HawkConfig::*member, const FieldRow& row) {
  if (row.lo.at == -kInf && row.hi.at == kInf) {
    return Status::Ok();
  }
  // An infinite end of an integer field is the type's own limit.
  using Limits = std::numeric_limits<T>;
  const T lo = Limits::is_integer && row.lo.at == -kInf ? Limits::min() : static_cast<T>(row.lo.at);
  const T hi = Limits::is_integer && row.hi.at == kInf ? Limits::max() : static_cast<T>(row.hi.at);
  const T value = config.*member;
  if ((row.lo.open ? value > lo : value >= lo) && (row.hi.open ? value < hi : value <= hi)) {
    return Status::Ok();
  }
  std::ostringstream message;
  message << row.name << " must be in " << (row.lo.open ? '(' : '[') << lo << ", " << hi
          << (row.hi.open ? ')' : ']') << ", got " << value;
  return Status::Error(message.str());
}

}  // namespace

uint32_t HawkConfig::GeneralCount() const {
  const auto short_count =
      static_cast<uint32_t>(static_cast<double>(num_workers) * short_partition_fraction);
  // Never let the general partition vanish entirely.
  return num_workers > short_count ? num_workers - short_count : 1;
}

Status HawkConfig::Validate() const {
  for (const FieldRow& row : kFields) {
    const auto check = [&](auto member) { return CheckRange(*this, member, row); };
    if (Status status = std::visit(check, row.member); !status.ok()) {
      return status;
    }
  }
  // Cross-field rules.
  if (big_worker_fraction > 0.0 &&
      (big_worker_slots < 1 || big_worker_slots > kMaxSlotsPerWorker)) {
    return Status::Error("big_worker_slots must be in [1, " + std::to_string(kMaxSlotsPerWorker) +
                         "] when big_worker_fraction > 0, got " + std::to_string(big_worker_slots));
  }
  // Exact layout total (not a worst-case bound): heterogeneous fleets are
  // rejected only when their actual slot count overflows.
  const uint64_t big = Slots().BigWorkerCount(num_workers);
  const uint64_t total =
      (static_cast<uint64_t>(num_workers) - big) * slots_per_worker + big * big_worker_slots;
  if (total > std::numeric_limits<uint32_t>::max()) {
    return Status::Error("total slot count (" + std::to_string(total) +
                         ") overflows the 32-bit slot-index space");
  }
  if (!(estimate_noise_lo <= estimate_noise_hi)) {
    return Status::Error("estimate_noise_lo (" + std::to_string(estimate_noise_lo) +
                         ") must be <= estimate_noise_hi (" + std::to_string(estimate_noise_hi) +
                         ")");
  }
  if ((worker_crash_rate > 0.0 || worker_churn_rate > 0.0) && worker_downtime_us <= 0) {
    return Status::Error("worker_downtime_us must be > 0 when crash/churn rates are set");
  }
  if (straggler_rate > 0.0 && !(straggler_slowdown_factor > 1.0)) {
    return Status::Error("straggler_slowdown_factor must be > 1 when straggler_rate > 0, got " +
                         std::to_string(straggler_slowdown_factor));
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
  for (const FieldRow& row : kFields) {
    if (row.name == field) {
      if (!std::visit([&](auto member) { return Assign(&(config->*member), value); }, row.member)) {
        return Status::Error("value " + std::to_string(value) +
                             " is out of range for config field '" + std::string(field) + "'");
      }
      return Status::Ok();
    }
  }
  std::string known;
  for (const FieldRow& row : kFields) {
    known += known.empty() ? "" : ", ";
    known += row.name;
  }
  return Status::Error("unknown config field '" + std::string(field) + "'; known fields: " + known);
}

std::vector<std::string_view> ConfigFieldNames() {
  std::vector<std::string_view> names;
  names.reserve(std::size(kFields));
  for (const FieldRow& row : kFields) {
    names.push_back(row.name);
  }
  return names;
}

}  // namespace hawk
