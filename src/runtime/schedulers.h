// Prototype schedulers (paper §3.8, §4.10): distributed frontends handling
// probed jobs and one centralized backend placing jobs with the §3.7
// waiting-time queue. The prototype uses "1 centralized and 10 distributed
// schedulers" for its 100-node runs.
//
// Which jobs go where, which slot span probes cover, and whether the backend
// exists at all is decided by the registered policy's RuntimeShape
// (src/scheduler/policy.h) — the frontends and backend are policy-agnostic
// executors of the shared src/core/ components: ChooseProbeTargetsInto for
// probe placement over the layout cluster's slot space and
// SlotWaitingTimeQueue for multi-slot centralized placement.
#ifndef HAWK_RUNTIME_SCHEDULERS_H_
#define HAWK_RUNTIME_SCHEDULERS_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/results.h"
#include "src/common/check.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/adaptive_timeout.h"
#include "src/core/slot_waiting_queue.h"
#include "src/runtime/failure_detector.h"
#include "src/runtime/message_bus.h"
#include "src/runtime/proto_messages.h"
#include "src/scheduler/policy.h"

namespace hawk {
namespace runtime {

// Collects wall-clock job completions from all schedulers.
class CompletionSink {
 public:
  struct Completion {
    JobId job = 0;
    bool is_long = false;
    std::chrono::steady_clock::time_point finished_at;
  };

  // Declares the job ids the run will complete; tracking ids (not just a
  // count) lets a timeout name the jobs still outstanding.
  void ExpectJobs(const std::vector<JobId>& ids);
  // Records a completion. Each job has exactly one owning scheduler, which
  // records it once and then forgets it, so a job recorded twice — like a
  // job id that was never expected — is a wiring bug and aborts.
  void Record(JobId job, bool is_long);
  // Per-job progress annotation for timeout diagnostics: given a job id,
  // returns a short suffix like " (3/10 tasks done)" — or "" when the
  // caller cannot locate the job. Supplied by the harness, which can ask
  // the schedulers that own the jobs; the sink itself only sees whole-job
  // completions.
  using ProgressFn = std::function<std::string(JobId)>;

  // Blocks until all expected jobs completed or the deadline passes. On
  // timeout the error lists the outstanding job ids (up to a cap, sorted so
  // runs are comparable), each annotated with its done/total task counts
  // when `progress` is supplied — so a slow or stuck run is diagnosable
  // from the log alone, down to the task that never came back.
  Status AwaitAll(std::chrono::milliseconds timeout, const ProgressFn& progress = nullptr);
  std::vector<Completion> TakeAll();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_set<JobId> expected_;  // Every id ever passed to ExpectJobs.
  std::unordered_set<JobId> outstanding_;
  std::vector<Completion> completions_;
};

// Wall-clock fault-recovery knobs shared by the scheduler executors. A
// zero-initialized policy (enabled = false, speculation off) makes every
// fault path inert: no deadlines are armed and reaping finds nothing.
struct FaultRecoveryPolicy {
  bool enabled = false;
  // Seed and cap basis for the adaptive detection timeout: each executor
  // tracks the observed issue->completion overshoot with a Jacobson
  // estimator (src/core/adaptive_timeout.h) seeded from this value, so the
  // effective detection window shrinks toward real overheads on a healthy
  // cluster and backs off exponentially per re-dispatch of the same task.
  // Also the (fixed) probe-loss watchdog window.
  std::chrono::microseconds detection_timeout{750'000};
  // Re-dispatches of one task beyond this budget are counted as
  // retries_suppressed (and the task as abandoned, once) instead of
  // tasks_re_dispatched. Unlike the simulator — where an abandoned delivery
  // is genuinely dropped and recovered through the loss path — the
  // prototype keeps retrying at the maximum backoff interval: a wall-clock
  // run must terminate, and the counters still expose the budget overrun.
  uint32_t retry_budget = 16;
  // Speculative re-execution: a granted task whose copy has been running
  // longer than threshold x its nominal duration gets one duplicate grant;
  // first completion wins, the loser is deduplicated. <= 0 disables.
  double speculation_threshold = 0.0;

  bool SpeculationOn() const { return speculation_threshold > 0.0; }
  // The adaptive detection window: seeded at detection_timeout, floored at
  // 1/16th of it (it may shrink toward observed overheads but never to
  // nothing) and capped at 64x (the backoff ceiling for a task that keeps
  // dying).
  AdaptiveTimeout MakeDetectionWindow() const;
};

// The wall-clock recovery ledger both prototype schedulers keep for the jobs
// they own: admission, per-task deadlines on the adaptive detection window,
// the Karn's-rule estimator sample, retry-budget accounting, duplicate-
// completion dedupe, and retirement of finished jobs into the sink. It
// counts recovery straight into the RunCounters fields RunPrototype reports.
// It has no lock of its own: every member runs under the owning scheduler's
// mutex, which the ledger takes itself only in the two readers the harness
// calls from outside (JobProgress, Counters). `Extra` is the owner's own
// per-job state.
template <typename Extra>
class RecoveryLedger {
 public:
  using Clock = std::chrono::steady_clock;
  // kIssued tasks (granted or placed) carry a presumed-dead deadline.
  enum class Phase : uint8_t { kPending, kIssued, kDone };
  struct Task {
    Phase phase = Phase::kPending;
    // When the current copy was issued — the base of the speculation check
    // and of the completion-overshoot sample fed to the estimator.
    Clock::time_point issued_at;
    Clock::time_point deadline;
    uint32_t attempts = 0;    // Re-dispatches so far (backoff exponent).
    bool speculated = false;  // One duplicate per logical task, ever.
  };
  struct Job {
    std::vector<int64_t> durations_us;
    std::vector<Task> tasks;
    uint32_t finished = 0;
    bool is_long = false;
    Extra extra;
  };

  RecoveryLedger(const FaultRecoveryPolicy& policy, CompletionSink* sink, std::mutex* owner_mu)
      : policy_(policy), sink_(sink), owner_mu_(owner_mu), rto_(policy.MakeDetectionWindow()) {
    HAWK_CHECK(sink != nullptr);
  }

  const FaultRecoveryPolicy& policy() const { return policy_; }
  RunCounters& counters() { return counters_; }
  // The jobs this ledger holds, by id.
  std::unordered_map<JobId, Job>& owned() { return jobs_; }

  // Takes ownership of a submitted job, all of its tasks pending.
  Job& Admit(const JobSubmitMsg& submit) {
    Job state;
    state.durations_us = submit.task_durations_us;
    state.tasks.resize(state.durations_us.size());
    state.is_long = submit.is_long;
    const auto emplaced = jobs_.emplace(submit.job, std::move(state));
    HAWK_CHECK(emplaced.second) << "job " << submit.job << " submitted twice";
    return emplaced.first->second;
  }

  // Marks a task issued now and, when recovery is enabled, arms its
  // deadline: the nominal runtime plus the adaptive window, backed off
  // exponentially per prior re-dispatch of this task and jittered
  // deterministically so a mass-casualty crash does not re-dispatch its
  // victims in lockstep.
  void Issue(JobId job, Job& state, uint32_t task_index) {
    Task& task = state.tasks[task_index];
    task.phase = Phase::kIssued;
    task.issued_at = Clock::now();
    if (!policy_.enabled) {
      return;
    }
    const DurationUs window = rto_.BackoffTimeoutUs(task.attempts);
    const uint64_t jitter_key = (static_cast<uint64_t>(job) << 32) | task_index;
    task.deadline =
        task.issued_at + std::chrono::microseconds(state.durations_us[task_index]) +
        std::chrono::microseconds(window) +
        std::chrono::microseconds(AdaptiveTimeout::JitterUs(jitter_key, task.attempts, window / 4));
  }

  // True when `task` is issued and past its deadline: it is presumed dead
  // with its node, back to kPending, and its re-dispatch is accounted
  // against the retry budget (over budget it still happens — a wall-clock
  // run must terminate — but counts as suppressed, and the task as
  // abandoned exactly once, at the moment of exhaustion).
  bool ReapIfOverdue(Task& task, Clock::time_point now) {
    if (!policy_.enabled || task.phase != Phase::kIssued || now <= task.deadline) {
      return false;
    }
    task.phase = Phase::kPending;
    ++task.attempts;
    if (task.attempts <= policy_.retry_budget) {
      ++counters_.tasks_re_dispatched;
    } else {
      ++counters_.retries_suppressed;
      counters_.tasks_abandoned += task.attempts == policy_.retry_budget + 1 ? 1 : 0;
    }
    return true;
  }

  // Applies a completion report. A repeat for a done task or a retired job
  // is counted and dropped; a first completion — even from a copy recovery
  // already presumed dead — finishes the task, and the job's last one
  // records it in the sink and retires it. Returns the job when it is still
  // live after a first completion, else null.
  Job* Complete(const TaskMsg& done) {
    const auto it = jobs_.find(done.job);
    if (it == jobs_.end()) {
      ++counters_.duplicate_completions;
      return nullptr;
    }
    Job& state = it->second;
    HAWK_CHECK_LT(done.task_index, state.tasks.size());
    Task& task = state.tasks[done.task_index];
    if (task.phase == Phase::kDone) {
      ++counters_.duplicate_completions;
      if (task.speculated) {
        // The losing copy of a speculated pair: its whole nominal runtime
        // was duplicate work.
        counters_.speculative_wasted_us += static_cast<uint64_t>(done.duration_us);
      }
      return nullptr;
    }
    // Karn's rule: only a copy that was never re-dispatched or duplicated
    // feeds the estimator — a retransmitted task's completion cannot be
    // attributed to one send, and would poison the smoothed overshoot.
    if (task.phase == Phase::kIssued && task.attempts == 0 && !task.speculated) {
      const auto elapsed = Clock::now() - task.issued_at;
      const int64_t overshoot =
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count() -
          done.duration_us;
      rto_.AddSample(static_cast<double>(std::max<int64_t>(overshoot, 0)));
    }
    task.phase = Phase::kDone;
    if (++state.finished < state.tasks.size()) {
      return &state;
    }
    sink_->Record(done.job, state.is_long);
    jobs_.erase(it);
    return nullptr;
  }

  // Task-level progress of a job this ledger holds, for AwaitAll timeout
  // diagnostics. False if the job is unknown here (finished, or owned by
  // another scheduler). Locks the owner's mutex.
  bool JobProgress(JobId job, uint32_t* done, uint32_t* total) const {
    std::lock_guard<std::mutex> lock(*owner_mu_);
    const auto it = jobs_.find(job);
    if (it == jobs_.end()) {
      return false;
    }
    *done = it->second.finished;
    *total = static_cast<uint32_t>(it->second.tasks.size());
    return true;
  }

  // A consistent snapshot of the counters. Locks the owner's mutex.
  RunCounters Counters() const {
    std::lock_guard<std::mutex> lock(*owner_mu_);
    return counters_;
  }

 private:
  const FaultRecoveryPolicy policy_;
  CompletionSink* sink_;
  std::mutex* owner_mu_;
  // Adaptive detection window: issue->completion overshoot of unretried,
  // unspeculated copies, Jacobson-smoothed.
  AdaptiveTimeout rto_;
  std::unordered_map<JobId, Job> jobs_;
  RunCounters counters_;
};

// A distributed scheduler frontend: owns the jobs submitted to it, places
// `probe_ratio * t` probes over the slot span the policy's RuntimeShape
// declares for the job's class, and late-binds tasks on request.
class DistributedFrontend {
 public:
  // What only the frontend tracks per job: late-binding state and the
  // probe-loss watchdog.
  struct FrontendJob {
    uint32_t next_unassigned = 0;
    // Task indices returned by fault recovery or speculation, re-granted
    // before the cursor advances (the runtime twin of JobTracker's
    // returned list).
    std::vector<uint32_t> returned;
    // Pushed forward by any grant/completion progress and by (re-)probing;
    // expiring with unassigned tasks means every outstanding probe is
    // sitting on a dead node or was dropped.
    std::chrono::steady_clock::time_point probe_deadline;
  };
  using Ledger = RecoveryLedger<FrontendJob>;

  // `layout` is the run's immutable cluster layout (slot spans, capacity
  // weighting); it must outlive the frontend and is shared read-only across
  // all runtime components.
  // `detector` (optional) steers probe placement away from currently
  // suspected nodes; null keeps placement detector-blind.
  DistributedFrontend(Address address, const Cluster* layout, const RuntimeShape& shape,
                      uint32_t probe_ratio, const FaultRecoveryPolicy& faults,
                      MessageBus* bus, CompletionSink* sink, uint64_t seed,
                      const FailureDetector* detector = nullptr);

  void Start();

  // Fault recovery: returns overdue granted tasks to the assignable pool
  // and re-probes for them, and re-probes jobs whose unassigned tasks have
  // made no progress (their probes died with a crashed node or were
  // dropped by the bus). When speculation is on, also issues one duplicate
  // grant path for any copy running past threshold x its duration. Driven
  // by the harness's reaper thread.
  void ReapOverdue();

  // The jobs this frontend owns and its recovery counters; the harness
  // reads JobProgress and Counters through it.
  const Ledger& ledger() const { return ledger_; }

 private:
  void HandleMessage(const BusMessage& message);
  // Sends `count` fresh probes for `job` over the class's slot span,
  // steering individual draws away from detector-suspected nodes. Caller
  // holds mu_.
  void SendProbesLocked(JobId job, Ledger::Job& state, uint32_t count);

  const Address address_;
  const Cluster* layout_;
  const RuntimeShape shape_;
  const uint32_t probe_ratio_;
  MessageBus* bus_;
  const FailureDetector* detector_;

  std::mutex mu_;
  Rng rng_;
  Ledger ledger_;  // Guarded by mu_.
  // Probe-placement scratch (slot ids), reused across submissions.
  std::vector<SlotId> targets_;
  std::vector<uint32_t> picks_;
};

// The centralized backend: places every task of a submitted job on the
// minimum-waiting slot lane of the tracked partition (§3.7), via the same
// SlotWaitingTimeQueue the simulator's policies use; task start/finish
// reports from the node monitors keep the estimates synchronized. It never
// speculates.
class CentralBackend {
 public:
  // Re-placement charges the new lane the job's original estimate.
  struct BackendJob {
    int64_t estimate_us = 0;
  };
  using Ledger = RecoveryLedger<BackendJob>;

  // Tracks the general partition of `layout` — the whole cluster when the
  // policy registered no partition sizing.
  CentralBackend(Address address, const Cluster* layout, const FaultRecoveryPolicy& faults,
                 MessageBus* bus, CompletionSink* sink);

  void Start();

  // Fault recovery: re-places overdue unfinished tasks through the
  // waiting-time queue. A re-placed task whose original copy was merely
  // slow can complete twice; the ledger counts and drops the second
  // completion. Driven by the harness's reaper thread.
  void ReapOverdue();

  // The jobs this backend owns and its recovery counters.
  const Ledger& ledger() const { return ledger_; }

 private:
  void HandleMessage(const BusMessage& message);
  // Places one task through the waiting-time queue. Caller holds mu_.
  void PlaceTaskLocked(JobId job, Ledger::Job& state, uint32_t task_index);

  const Address address_;
  MessageBus* bus_;

  std::mutex mu_;
  // Guarded by mu_. Its adaptive window, unlike the frontend's, absorbs
  // queue wait — centrally placed tasks park behind their lane's backlog,
  // and that wait is genuine, not failure.
  Ledger ledger_;
  SlotWaitingTimeQueue waiting_;
  // Per-lane starts minus finishes, absorbing reorder on the multi-threaded
  // bus, where a task's kTaskDone handler can run before its own
  // kTaskStarted handler. Each start discharges the estimate its own
  // placement stamped (TaskMsg::estimate_us), so only the finishes need
  // pairing: a finish applies to the waiting queue only while the count
  // stays >= 0, and otherwise waits for its start, which replays it when the
  // count is still <= 0 after the start. A lane is therefore never left
  // marked executing with its finish already consumed.
  std::vector<int32_t> lane_balance_;
  std::chrono::steady_clock::time_point epoch_;

  SimTime NowUs() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }
};

}  // namespace runtime
}  // namespace hawk

#endif  // HAWK_RUNTIME_SCHEDULERS_H_
