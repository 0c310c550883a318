#include "bench/e2e/layer_trace.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <utility>

#include "src/common/check.h"
#include "src/common/status.h"
#include "src/scheduler/policy.h"
#include "src/scheduler/registry.h"

namespace hawk {
namespace e2e {
namespace {

constexpr std::string_view kTracedPrefix = "e2e-traced/";
constexpr int32_t kRunSpan = 0;
constexpr int32_t kBuildSpan = 1;
constexpr int32_t kLoopSpan = 2;
constexpr int32_t kFinishSpan = 3;
constexpr int32_t kFirstCallSpan = 4;

std::atomic<size_t> g_max_spans{0};

struct FinishedRuns {
  std::mutex mu;
  std::vector<RunLayers> runs;
};

FinishedRuns& Finished() {
  static FinishedRuns finished;
  return finished;
}

double ProcessRssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) {
    return 0.0;
  }
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

class TracedPolicy;

// Forwards to the driver; times the four calls that push work into it.
class TracedContext final : public SchedulerContext {
 public:
  explicit TracedContext(TracedPolicy* owner) : owner_(owner) {}

  void set_driver(SchedulerContext* driver) { driver_ = driver; }

  SimTime Now() const override { return driver_->Now(); }
  Rng& SchedRng() override { return driver_->SchedRng(); }
  Cluster& GetCluster() override { return driver_->GetCluster(); }
  JobTracker& Tracker() override { return driver_->Tracker(); }
  RunCounters& Counters() override { return driver_->Counters(); }
  void PlaceProbe(WorkerId worker, JobId job, bool is_long) override;
  void PlaceTask(WorkerId worker, JobId job, TaskIndex task_index, DurationUs duration,
                 bool is_long) override;
  void PlaceSpeculative(WorkerId worker, JobId job, TaskIndex task_index, DurationUs duration,
                        bool is_long) override;
  void DeliverStolen(WorkerId thief, const std::vector<QueueEntry>& entries) override;

 private:
  TracedPolicy* owner_;
  SchedulerContext* driver_ = nullptr;
};

// Forwards every SchedulerPolicy virtual to the base policy and times each
// callback. Publishes its RunLayers when deleted, which RunExperiment does
// after the driver is gone.
class TracedPolicy final : public SchedulerPolicy {
 public:
  TracedPolicy(std::unique_ptr<SchedulerPolicy> inner, std::string scheduler, uint32_t workers,
               int64_t factory_ns)
      : inner_(std::move(inner)), context_(this), max_spans_(g_max_spans.load()) {
    HAWK_CHECK(inner_ != nullptr) << "scheduler '" << scheduler << "' factory returned null";
    layers_.scheduler = std::move(scheduler);
    layers_.workers = workers;
    layers_.factory_ns = factory_ns;
  }

  TracedPolicy(const TracedPolicy&) = delete;
  TracedPolicy& operator=(const TracedPolicy&) = delete;

  ~TracedPolicy() override {
    inner_.reset();
    layers_.deleted_ns = HostNowNs();
    if (layers_.last_return_ns == 0) {
      layers_.last_return_ns = layers_.attached_ns;
    }
    const RunLayers& l = layers_;
    layers_.spans.push_back({"run", l.factory_ns, l.deleted_ns, kRunSpan, -1, -1});
    layers_.spans.push_back({"build", l.factory_ns, l.attached_ns, kBuildSpan, kRunSpan, -1});
    layers_.spans.push_back({"loop", l.attached_ns, l.last_return_ns, kLoopSpan, kRunSpan, -1});
    layers_.spans.push_back(
        {"finish", l.last_return_ns, l.deleted_ns, kFinishSpan, kRunSpan, -1});
    FinishedRuns& finished = Finished();
    const std::lock_guard<std::mutex> lock(finished.mu);
    finished.runs.push_back(std::move(layers_));
  }

  void Attach(SchedulerContext* ctx) override {
    SchedulerPolicy::Attach(ctx);
    context_.set_driver(ctx);
    inner_->Attach(&context_);
    layers_.build_rss_mb = ProcessRssMb();
    layers_.attached_ns = HostNowNs();
  }

  RuntimeShape ShapeForRuntime(const HawkConfig& config) const override {
    return inner_->ShapeForRuntime(config);
  }
  double SpeculationThreshold(const HawkConfig& config) const override {
    return inner_->SpeculationThreshold(config);
  }
  std::string_view Name() const override { return inner_->Name(); }

  void OnJobArrival(const Job& job, const JobClass& cls) override {
    Timed(kOnJobArrival, job.id, [&] { inner_->OnJobArrival(job, cls); });
  }
  void OnWorkerIdle(WorkerId worker) override {
    Timed(kOnWorkerIdle, -1, [&] { inner_->OnWorkerIdle(worker); });
  }
  void OnTaskStart(WorkerId worker, const QueueEntry& task) override {
    Timed(kOnTaskStart, task.job, [&] { inner_->OnTaskStart(worker, task); });
  }
  void OnTaskFinish(WorkerId worker, JobId job, bool is_long) override {
    Timed(kOnTaskFinish, job, [&] { inner_->OnTaskFinish(worker, job, is_long); });
  }
  void OnTaskLost(JobId job, bool is_long) override {
    Timed(kOnTaskLost, job, [&] { inner_->OnTaskLost(job, is_long); });
  }
  void OnProbeLost(JobId job, bool is_long) override {
    Timed(kOnProbeLost, job, [&] { inner_->OnProbeLost(job, is_long); });
  }
  void OnTaskStraggling(JobId job, TaskIndex task_index, DurationUs duration,
                        bool is_long) override {
    Timed(kOnTaskStraggling, job,
          [&] { inner_->OnTaskStraggling(job, task_index, duration, is_long); });
  }

  template <typename Call>
  void TimedPlacement(Placement placement, int64_t job, Call&& call) {
    const int32_t span = OpenSpan();
    const int64_t start = HostNowNs();
    call();
    const int64_t end = HostNowNs();
    CallStat& stat = layers_.placements[placement];
    ++stat.calls;
    stat.busy_ns += end - start;
    if (in_callback_) {
      child_ns_ += end - start;
      ++child_calls_;
    }
    if (span >= 0) {
      layers_.spans.push_back({kPlacementNames[placement], start, end, span,
                               in_callback_ ? callback_span_ : kLoopSpan, job});
    }
  }

 private:
  template <typename Call>
  void Timed(Callback callback, int64_t job, Call&& call) {
    // The drivers never call back into the policy from inside a callback;
    // nested calls would be counted twice.
    HAWK_CHECK(!in_callback_) << "re-entrant policy callback";
    in_callback_ = true;
    child_ns_ = 0;
    child_calls_ = 0;
    callback_span_ = OpenSpan();
    const int64_t start = HostNowNs();
    call();
    const int64_t end = HostNowNs();
    in_callback_ = false;
    CallStat& stat = layers_.callbacks[callback];
    ++stat.calls;
    stat.busy_ns += end - start;
    stat.child_ns += child_ns_;
    stat.child_calls += child_calls_;
    layers_.last_return_ns = end;
    if (callback_span_ >= 0) {
      layers_.spans.push_back(
          {kCallbackNames[callback], start, end, callback_span_, kLoopSpan, job});
    }
  }

  // Reserves the next span id, or returns -1 once the run's budget is spent.
  int32_t OpenSpan() {
    if (static_cast<size_t>(next_span_ - kFirstCallSpan) >= max_spans_) {
      ++layers_.spans_dropped;
      return -1;
    }
    return next_span_++;
  }

  std::unique_ptr<SchedulerPolicy> inner_;
  TracedContext context_;
  RunLayers layers_;
  size_t max_spans_;
  int32_t next_span_ = kFirstCallSpan;
  bool in_callback_ = false;
  int32_t callback_span_ = -1;
  int64_t child_ns_ = 0;
  uint64_t child_calls_ = 0;
};

void TracedContext::PlaceProbe(WorkerId worker, JobId job, bool is_long) {
  owner_->TimedPlacement(kPlaceProbe, job, [&] { driver_->PlaceProbe(worker, job, is_long); });
}

void TracedContext::PlaceTask(WorkerId worker, JobId job, TaskIndex task_index,
                              DurationUs duration, bool is_long) {
  owner_->TimedPlacement(kPlaceTask, job, [&] {
    driver_->PlaceTask(worker, job, task_index, duration, is_long);
  });
}

void TracedContext::PlaceSpeculative(WorkerId worker, JobId job, TaskIndex task_index,
                                     DurationUs duration, bool is_long) {
  owner_->TimedPlacement(kPlaceSpeculative, job, [&] {
    driver_->PlaceSpeculative(worker, job, task_index, duration, is_long);
  });
}

void TracedContext::DeliverStolen(WorkerId thief, const std::vector<QueueEntry>& entries) {
  owner_->TimedPlacement(kDeliverStolen, -1, [&] { driver_->DeliverStolen(thief, entries); });
}

}  // namespace

int64_t HostNowNs() {
  // hawk-lint: allow(HL003) host-time measurement; no simulated state reads it
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

double CalibrateTimerNs() {
  constexpr int kBatches = 16;
  constexpr int kReads = 1 << 16;
  double best = 0.0;
  int64_t sink = 0;
  for (int b = 0; b < kBatches; ++b) {
    const int64_t start = HostNowNs();
    for (int i = 0; i < kReads; ++i) {
      sink ^= HostNowNs();
    }
    const double per_read = static_cast<double>(HostNowNs() - start) / kReads;
    best = b == 0 ? per_read : std::min(best, per_read);
  }
  HAWK_CHECK(sink != 1);  // Keeps the reads observable.
  return best;
}

void RegisterTracedSchedulers() {
  SchedulerRegistry& registry = SchedulerRegistry::Global();
  for (const std::string& name : registry.Names()) {
    if (name.rfind(kTracedPrefix, 0) == 0) {
      continue;
    }
    // Entries are never removed, so the pointer outlives every run.
    const SchedulerRegistry::Entry* base = registry.Find(name);
    const Status status = registry.Register(
        TracedName(name),
        [base, name](const HawkConfig& config) -> std::unique_ptr<SchedulerPolicy> {
          const int64_t factory_ns = HostNowNs();
          return std::make_unique<TracedPolicy>(base->factory(config), name,
                                                config.num_workers, factory_ns);
        },
        base->general_count);
    HAWK_CHECK(status.ok()) << status.message();
  }
}

std::string TracedName(std::string_view scheduler) {
  return std::string(kTracedPrefix) + std::string(scheduler);
}

void SetSpanCapture(size_t max_spans) { g_max_spans.store(max_spans); }

std::vector<RunLayers> TakeFinishedRuns() {
  FinishedRuns& finished = Finished();
  const std::lock_guard<std::mutex> lock(finished.mu);
  std::vector<RunLayers> runs;
  runs.swap(finished.runs);
  return runs;
}

}  // namespace e2e
}  // namespace hawk
