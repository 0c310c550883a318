// Open scheduler registry: string names -> factories producing
// SchedulerPolicy instances from a HawkConfig.
//
// The built-in schedulers (sparrow, centralized, hawk, split and the hawk-*
// variants) register themselves when the experiment layer is linked in, each
// a HawkPolicy running its design RuntimeShape — the shape that then drives
// both executors. External code — examples, downstream users — registers new
// variants through the exact same mechanism (see examples/custom_policy.cpp,
// which adds "hawk-lb" from outside src/). A registered name is a
// first-class experiment citizen: it can be run, swept, compared and
// exported like any built-in.
#ifndef HAWK_SCHEDULER_REGISTRY_H_
#define HAWK_SCHEDULER_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/hawk_config.h"
#include "src/scheduler/policy.h"

namespace hawk {

class SchedulerRegistry {
 public:
  // Builds a fresh policy for one run. Factories must be thread-safe (sweeps
  // call them concurrently) and self-contained: each returned policy is used
  // by exactly one driver.
  using Factory = std::function<std::unique_ptr<SchedulerPolicy>(const HawkConfig&)>;
  // Size of the partition the driver treats as "general" (workers
  // [0, general_count)). Null means the whole cluster — the right answer for
  // unpartitioned schedulers.
  using GeneralCountFn = std::function<uint32_t(const HawkConfig&)>;

  struct Entry {
    Factory factory;
    GeneralCountFn general_count;  // May be null: whole cluster.
  };

  // The process-wide registry used by RunExperiment / RunSweep.
  static SchedulerRegistry& Global();

  // Registers `name`. Duplicate names are rejected with an error status (the
  // first registration wins), so two libraries cannot silently fight over a
  // name. Registration must happen before concurrent sweeps start — in
  // practice at static-init or early in main().
  Status Register(std::string name, Factory factory, GeneralCountFn general_count = nullptr);

  // Null if `name` was never registered. The pointer stays valid for the
  // registry's lifetime (entries are never removed).
  const Entry* Find(std::string_view name) const;

  bool Contains(std::string_view name) const { return Find(name) != nullptr; }

  // All registered names, sorted.
  std::vector<std::string> Names() const;

  // The registered names as one comma-separated string — the shared tail of
  // every "unknown scheduler" error message.
  std::string JoinedNames() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

// Static-initializer helper: registers a scheduler or aborts on a duplicate
// name. Intended for file-scope use next to the policy being registered:
//
//   const hawk::SchedulerRegistration kRegisterMine(
//       "mine", [](const hawk::HawkConfig& c) {
//         return std::make_unique<MyPolicy>(c);
//       });
class SchedulerRegistration {
 public:
  SchedulerRegistration(std::string name, SchedulerRegistry::Factory factory,
                        SchedulerRegistry::GeneralCountFn general_count = nullptr);
};

}  // namespace hawk

#endif  // HAWK_SCHEDULER_REGISTRY_H_
