#include "src/runtime/prototype_cluster.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/common/check.h"
#include "src/common/random.h"
#include "src/core/job_classifier.h"
#include "src/runtime/failure_detector.h"
#include "src/runtime/node_monitor.h"
#include "src/runtime/proto_messages.h"
#include "src/runtime/schedulers.h"
#include "src/scheduler/registry.h"

namespace hawk {
namespace runtime {
namespace {

using Clock = std::chrono::steady_clock;

// RPC bus delivery threads: enough to overlap deliveries to different
// endpoints without crowding the monitors' executor threads.
constexpr uint32_t kBusThreads = 3;

// A harness thread (sampler, fault controller, heartbeat pump, reaper):
// calls `step` first at `first`, then whenever the previous call asks,
// until Stop(). The wait between calls is interruptible, so a period
// longer than the run cannot stall teardown until the next tick.
class HarnessThread {
 public:
  ~HarnessThread() { Stop(); }

  void Start(Clock::time_point first, std::function<Clock::time_point()> step) {
    thread_ = std::thread([this, first, step = std::move(step)] {
      std::unique_lock<std::mutex> lock(mu_);
      for (Clock::time_point next = first;
           !cv_.wait_until(lock, next, [this] { return stop_; });) {
        lock.unlock();
        next = step();
        lock.lock();
      }
    });
  }

  // Stops and joins; a no-op for a thread never started or already stopped.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

Status PrototypeConfig::Validate() const {
  if (scheduler.empty()) {
    return Status::Error("prototype scheduler name must not be empty");
  }
  const Status hawk_status = hawk.Validate();
  if (!hawk_status.ok()) {
    return hawk_status;
  }
  if (num_frontends == 0) {
    return Status::Error("num_frontends must be nonzero");
  }
  if (timeout.count() <= 0) {
    return Status::Error("timeout must be positive");
  }
  if (fault_detection_timeout.count() <= 0) {
    return Status::Error("fault_detection_timeout must be positive");
  }
  if (reap_period.count() <= 0) {
    return Status::Error("reap_period must be positive");
  }
  if (heartbeat_period.count() <= 0) {
    return Status::Error("heartbeat_period must be positive");
  }
  return Status::Ok();
}

StatusOr<RunResult> RunPrototype(const Trace& trace, const PrototypeConfig& config) {
  const Status valid = config.Validate();
  if (!valid.ok()) {
    return valid;
  }
  // Registry resolution — the same lookup RunExperiment performs, but with a
  // clean Status instead of an abort: prototype configs frequently come from
  // command-line flags.
  const SchedulerRegistry::Entry* entry = SchedulerRegistry::Global().Find(config.scheduler);
  if (entry == nullptr) {
    return Status::Error("unknown scheduler '" + config.scheduler +
                         "'; registered schedulers: " +
                         SchedulerRegistry::Global().JoinedNames());
  }
  const std::unique_ptr<SchedulerPolicy> policy = entry->factory(config.hawk);
  if (policy == nullptr) {
    return Status::Error("scheduler '" + config.scheduler + "' factory returned null");
  }
  // The policy is consulted for its control-plane shape and partition, never
  // attached: the runtime executes the shape with the shared components.
  const RuntimeShape shape = policy->ShapeForRuntime(config.hawk);
  const uint32_t general_count =
      entry->general_count ? entry->general_count(config.hawk) : config.hawk.num_workers;
  const HawkConfig& hawk = config.hawk;

  // Monitors can hand each other only probes, so a steal group must never
  // hold a centrally placed short task.
  if (shape.centralized_short && shape.stealing) {
    return Status::Error("scheduler '" + config.scheduler +
                         "' places short tasks centrally and steals; the prototype can "
                         "steal only probes");
  }

  // The immutable layout every runtime component shares: slot counts per
  // node, the general-partition boundary, and the slot-index space used by
  // probe placement and steal-victim sampling.
  const Cluster layout(hawk.num_workers, general_count, hawk.Slots());
  if (shape.short_probe_span == RuntimeShape::ProbeSpan::kShortPartition &&
      layout.GeneralSlots() == layout.TotalSlots()) {
    return Status::Error("scheduler '" + config.scheduler +
                         "' probes the short partition, but the partition is empty");
  }

  // Fault layer: all axes live in the shared HawkConfig, so a spec sweeps
  // the simulator and the prototype identically. With every axis at zero the
  // runtime is wired exactly as before — no reaper, no fault controller, no
  // bus fault hook, no timeouts armed.
  const bool faults_on = hawk.FaultsEnabled();
  MessageBus bus(std::chrono::microseconds(hawk.net_delay_us), kBusThreads);
  if (hawk.message_loss_rate > 0.0 || hawk.message_delay_jitter_us > 0) {
    MessageBus::FaultInjection wire;
    wire.loss_rate = hawk.message_loss_rate;
    wire.jitter = std::chrono::microseconds(hawk.message_delay_jitter_us);
    wire.seed = Rng(hawk.seed ^ 0xD207B175ULL ^ (hawk.fault_seed * 0x9E3779B97F4A7C15ULL)).Next();
    // Only message types with timeout-based recovery are droppable: probes
    // (re-probed by the frontend watchdog), placements and completions
    // (re-dispatched by the owner's deadline reaper), and heartbeats (the
    // detector tolerates gaps by design — a dropped beat can at worst cause
    // a transient suspicion the next arrival clears). Losing a grant,
    // cancel, or steal message would leak a monitor slot or wedge a
    // protocol round with no recovery path — that models a crashed
    // endpoint, which the crash axis injects properly.
    wire.droppable = [](MessageType type) {
      return type == kProbe || type == kTaskPlace || type == kTaskDone ||
             type == kHeartbeat;
    };
    bus.EnableFaults(wire);
  }
  CompletionSink sink;
  {
    std::vector<JobId> ids;
    ids.reserve(trace.NumJobs());
    for (const Job& job : trace.jobs()) {
      ids.push_back(job.id);
    }
    sink.ExpectJobs(ids);
  }

  // Heartbeat failure detector — only spun up when a fault axis is active,
  // so fault-free runs carry no heartbeat traffic and match pre-fault
  // message counts exactly. Registered on the bus before any node monitor
  // starts, like every other endpoint.
  std::unique_ptr<FailureDetector> detector;
  if (faults_on) {
    detector = std::make_unique<FailureDetector>(
        hawk.num_workers,
        std::chrono::duration_cast<std::chrono::microseconds>(config.heartbeat_period));
    detector->Start(&bus);
  }

  // Node monitors (bus addresses 0..num_workers-1).
  NodeMonitorConfig nm_config;
  nm_config.layout = &layout;
  nm_config.steal_cap = shape.stealing ? hawk.steal_cap : 0;
  nm_config.victim_selection = shape.victim_selection;
  nm_config.straggler_rate = hawk.straggler_rate;
  nm_config.straggler_slowdown_factor = hawk.straggler_slowdown_factor;
  nm_config.detector = detector.get();
  if (faults_on) {
    nm_config.steal_response_timeout =
        std::chrono::duration_cast<std::chrono::microseconds>(config.fault_detection_timeout);
  }
  std::vector<std::unique_ptr<NodeMonitor>> monitors;
  monitors.reserve(hawk.num_workers);
  Rng seeder(hawk.seed);
  for (uint32_t n = 0; n < hawk.num_workers; ++n) {
    monitors.push_back(std::make_unique<NodeMonitor>(n, nm_config, &bus, seeder.Next()));
  }

  FaultRecoveryPolicy recovery;
  recovery.enabled = faults_on;
  recovery.detection_timeout =
      std::chrono::duration_cast<std::chrono::microseconds>(config.fault_detection_timeout);
  recovery.retry_budget = hawk.retry_budget;
  // The policy decides the effective threshold (the "hawk-spec" variant is
  // default-on), exactly as the simulation driver asks it.
  recovery.speculation_threshold = policy->SpeculationThreshold(hawk);

  // Distributed frontends, probing the spans the policy shape declares.
  std::vector<std::unique_ptr<DistributedFrontend>> frontends;
  frontends.reserve(config.num_frontends);
  for (uint32_t f = 0; f < config.num_frontends; ++f) {
    frontends.push_back(std::make_unique<DistributedFrontend>(kFrontendBase + f, &layout, shape,
                                                              hawk.probe_ratio, recovery, &bus,
                                                              &sink, seeder.Next(),
                                                              detector.get()));
  }

  std::unique_ptr<CentralBackend> backend;
  if (shape.centralized_long || shape.centralized_short) {
    backend = std::make_unique<CentralBackend>(kBackendAddress, &layout, recovery, &bus, &sink);
  }

  for (auto& monitor : monitors) {
    monitor->Start();
  }
  for (auto& frontend : frontends) {
    frontend->Start();
  }
  if (backend != nullptr) {
    backend->Start();
  }

  // Utilization sampler (the wall-clock analogue of the simulator's
  // periodic snapshots): executing slots over total slots, like
  // Cluster::Utilization.
  std::vector<double> utilization_samples;
  HarnessThread sampler;
  sampler.Start(Clock::now(), [&] {
    uint64_t executing = 0;
    for (const auto& monitor : monitors) {
      executing += monitor->ExecutingSlots();
    }
    utilization_samples.push_back(static_cast<double>(executing) /
                                  static_cast<double>(layout.TotalSlots()));
    return Clock::now() + std::chrono::microseconds(hawk.util_sample_period_us);
  });

  // Fault controller: a Poisson process of real fail-stop crashes (the
  // runtime analogue of the simulator's kCrashTick), with each victim
  // rejoining empty after the configured downtime. The RNG derivation
  // matches the simulator's, so fault_seed re-rolls faults here too without
  // touching scheduling seeds.
  uint64_t worker_crashes = 0;
  uint64_t worker_rejoins = 0;
  HarnessThread fault_controller;
  if (hawk.worker_crash_rate > 0.0) {
    Rng rng(Rng(hawk.seed ^ 0x8BADF00DDEADBEEFULL ^ (hawk.fault_seed * 0x9E3779B97F4A7C15ULL))
                .Next());
    const double mean_us = 1e6 / (hawk.worker_crash_rate * hawk.num_workers);
    const auto draw_wait = [mean_us](Rng& r) {
      return std::chrono::microseconds(
          std::max<int64_t>(std::llround(r.Exponential(mean_us)), 1));
    };
    const Clock::time_point first_crash = Clock::now() + draw_wait(rng);
    fault_controller.Start(
        first_crash, [&, rng, draw_wait, next_crash = first_crash,
                      rejoins = std::vector<std::pair<Clock::time_point, WorkerId>>()]() mutable {
          const Clock::time_point now = Clock::now();
          for (auto it = rejoins.begin(); it != rejoins.end();) {
            if (it->first <= now) {
              monitors[it->second]->Rejoin();
              ++worker_rejoins;
              it = rejoins.erase(it);
            } else {
              ++it;
            }
          }
          if (now >= next_crash) {
            const auto victim = static_cast<WorkerId>(rng.UniformInt(0, hawk.num_workers - 1));
            const bool down = std::any_of(rejoins.begin(), rejoins.end(),
                                          [victim](const auto& r) { return r.second == victim; });
            if (!down) {
              monitors[victim]->Crash();
              ++worker_crashes;
              rejoins.emplace_back(now + std::chrono::microseconds(hawk.worker_downtime_us),
                                   victim);
            }
            next_crash = now + draw_wait(rng);
          }
          Clock::time_point next = next_crash;
          for (const auto& rejoin : rejoins) {
            next = std::min(next, rejoin.first);
          }
          return next;
        });
  }

  // Heartbeat pump: one harness thread beats every live monitor each period
  // (a per-monitor thread would be num_workers threads for a strictly
  // periodic send). Crashed monitors stay silent inside SendHeartbeat — the
  // silence is the detector's signal.
  HarnessThread heartbeat_pump;
  if (detector != nullptr) {
    heartbeat_pump.Start(Clock::now(), [&] {
      for (auto& monitor : monitors) {
        monitor->SendHeartbeat();
      }
      return Clock::now() + config.heartbeat_period;
    });
  }

  // Reaper: periodically lets each scheduler re-dispatch work it presumes
  // dead (and, when speculation is armed, clone stragglers). This is the
  // prototype's whole recovery engine — without it a crash or drop strands
  // its tasks forever.
  HarnessThread reaper;
  if (faults_on || recovery.SpeculationOn()) {
    reaper.Start(Clock::now() + config.reap_period, [&] {
      for (auto& frontend : frontends) {
        frontend->ReapOverdue();
      }
      if (backend != nullptr) {
        backend->ReapOverdue();
      }
      return Clock::now() + config.reap_period;
    });
  }

  // Shared classification (§3.3): the same classifier, cutoff and noise
  // stream the simulation driver would construct for this config.
  JobClassifier classifier(hawk.classify_mode, hawk.cutoff_us, hawk.estimate_noise_lo,
                           hawk.estimate_noise_hi, Rng(hawk.seed).Next());

  // Submit jobs in real time following the trace's submission schedule.
  const Clock::time_point start = Clock::now();
  std::unordered_map<JobId, Clock::time_point> submit_times;
  submit_times.reserve(trace.NumJobs());
  std::unordered_map<JobId, bool> is_long_map;
  is_long_map.reserve(trace.NumJobs());
  {
    uint32_t next_frontend = 0;
    for (const Job& job : trace.jobs()) {
      const Clock::time_point due = start + std::chrono::microseconds(job.submit_time);
      std::this_thread::sleep_until(due);
      const JobClass cls = classifier.Classify(job);
      JobSubmitMsg submit = JobSubmitMsg::Make(
          job.id, cls.is_long_sched, std::llround(std::max(0.0, cls.estimate_us)),
          {job.task_durations.begin(), job.task_durations.end()});
      submit_times.emplace(job.id, Clock::now());
      is_long_map.emplace(job.id, cls.is_long_metrics);
      const bool to_backend =
          cls.is_long_sched ? shape.centralized_long : shape.centralized_short;
      if (to_backend) {
        bus.Send(kBackendAddress, kBackendAddress, kJobSubmit, std::move(submit));
      } else {
        const Address frontend = kFrontendBase + (next_frontend++ % config.num_frontends);
        bus.Send(frontend, frontend, kJobSubmit, std::move(submit));
      }
    }
  }

  // On timeout the sink lists the stuck jobs; the progress callback enriches
  // each with how far its owner got (done/total tasks) — the difference
  // between "never scheduled" and "one task wedged" when triaging a hang.
  const auto progress = [&](JobId job) -> std::string {
    uint32_t done = 0;
    uint32_t total = 0;
    bool found = backend != nullptr && backend->ledger().JobProgress(job, &done, &total);
    for (const auto& frontend : frontends) {
      found = found || frontend->ledger().JobProgress(job, &done, &total);
    }
    return found ? " (" + std::to_string(done) + "/" + std::to_string(total) + " tasks done)"
                 : " (owner already retired it)";
  };
  const Status completed = sink.AwaitAll(config.timeout, progress);
  if (!completed.ok()) {
    std::cerr << completed.message() << "; results are partial\n";
  }
  // Stop the fault machinery before draining: the reaper sends on the bus,
  // so it must be gone before the bus winds down.
  fault_controller.Stop();
  reaper.Stop();
  heartbeat_pump.Stop();
  bus.Drain();
  sampler.Stop();
  for (auto& monitor : monitors) {
    monitor->Stop();
  }
  bus.Shutdown();

  // Assemble a RunResult in the simulator's shape (times relative to start).
  RunResult result;
  result.utilization_samples = std::move(utilization_samples);
  for (const auto& completion : sink.TakeAll()) {
    JobResult job_result;
    job_result.id = completion.job;
    job_result.is_long = is_long_map.at(completion.job);
    const auto submit_at = submit_times.at(completion.job);
    job_result.submit_time =
        std::chrono::duration_cast<std::chrono::microseconds>(submit_at - start).count();
    job_result.finish_time = std::chrono::duration_cast<std::chrono::microseconds>(
                                 completion.finished_at - start)
                                 .count();
    job_result.runtime_us = job_result.finish_time - job_result.submit_time;
    result.makespan_us = std::max(result.makespan_us, job_result.finish_time);
    result.jobs.push_back(job_result);
  }
  std::sort(result.jobs.begin(), result.jobs.end(),
            [](const JobResult& a, const JobResult& b) { return a.id < b.id; });

  result.counters.jobs = result.jobs.size();
  for (const auto& monitor : monitors) {
    result.counters.tasks_launched += monitor->tasks_executed();
    result.counters.steal_attempts += monitor->steals_attempted();
    result.counters.entries_stolen += monitor->entries_stolen();
    result.counters.wasted_work_us += static_cast<uint64_t>(monitor->wasted_work_us());
  }
  result.counters.events = bus.MessagesDelivered();
  // Fault counters, with the same meanings as the simulator's: parity lets
  // `hawk_figures --figure=ablation-faults` print one table over both
  // executors.
  result.counters.worker_crashes = worker_crashes;
  result.counters.worker_rejoins = worker_rejoins;
  result.counters.messages_dropped = bus.MessagesDropped();
  for (const auto& frontend : frontends) {
    frontend->ledger().Counters().AddTo(&result.counters);
  }
  if (backend != nullptr) {
    backend->ledger().Counters().AddTo(&result.counters);
  }
  if (detector != nullptr) {
    result.counters.node_suspicions = detector->suspicions();
  }
  result.total_busy_us = 0;
  for (const auto& monitor : monitors) {
    result.total_busy_us += monitor->busy_us();
  }
  return result;
}

StatusOr<RunResult> RunPrototype(const ExperimentSpec& spec, const PrototypeConfig& runtime) {
  if (spec.trace == nullptr) {
    return Status::Error("prototype experiment '" + spec.Label() + "' has no trace");
  }
  PrototypeConfig config = runtime;
  config.scheduler = spec.scheduler;
  config.hawk = spec.config;
  // The sampler period is a wall-clock knob and stays with `runtime`: a
  // spec tuned for the simulator typically carries the 100 s sim-time
  // default, which on the wall clock would mean one utilization sample per
  // run and a silently-zero median utilization.
  config.hawk.util_sample_period_us = runtime.hawk.util_sample_period_us;
  return RunPrototype(*spec.trace, config);
}

StatusOr<std::vector<SweepRun>> RunPrototypeSweep(const SweepSpec& sweep,
                                                  const PrototypeConfig& runtime) {
  std::vector<SweepRun> runs;
  std::vector<ExperimentSpec> specs = sweep.Expand();
  runs.reserve(specs.size());
  for (ExperimentSpec& spec : specs) {
    StatusOr<RunResult> result = RunPrototype(spec, runtime);
    if (!result.ok()) {
      return Status::Error("prototype sweep point '" + spec.Label() +
                           "' failed: " + result.status().message());
    }
    runs.push_back(SweepRun{std::move(spec), std::move(result.value())});
  }
  return runs;
}

}  // namespace runtime
}  // namespace hawk
