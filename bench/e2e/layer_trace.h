// Per-layer tracing for hawk_e2e, done from the benchmark's side of the
// public API so that nothing in src/ is instrumented.
//
// RegisterTracedSchedulers() adds "e2e-traced/<name>" to the scheduler
// registry for every registered scheduler. The traced policy forwards every
// SchedulerPolicy virtual to a fresh instance of the base policy and times
// each callback; the SchedulerContext it hands that instance forwards to the
// driver and times each Place*/DeliverStolen call. A traced run therefore
// executes the same decisions as an untraced one, and the benchmark checks
// that its result digest is identical.
//
// Timeline of one traced run (one sweep point), on the host clock:
//   factory called -> inner Attach returned   build   (driver and policy set-up)
//   Attach returned -> last callback returned loop    (the event loop)
//   last callback returned -> wrapper deleted finish  (results, driver teardown)
#ifndef HAWK_BENCH_E2E_LAYER_TRACE_H_
#define HAWK_BENCH_E2E_LAYER_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hawk {
namespace e2e {

// Monotonic host time in nanoseconds.
int64_t HostNowNs();

// Cost of one HostNowNs() read: the fastest of several batches of reads,
// since interference from the rest of the host only adds time.
double CalibrateTimerNs();

enum Callback : size_t {
  kOnJobArrival,
  kOnWorkerIdle,
  kOnTaskStart,
  kOnTaskFinish,
  kOnTaskLost,
  kOnProbeLost,
  kOnTaskStraggling,
  kNumCallbacks
};
inline constexpr std::array<std::string_view, kNumCallbacks> kCallbackNames = {
    "on_job_arrival", "on_worker_idle",   "on_task_start",     "on_task_finish",
    "on_task_lost",   "on_probe_lost",    "on_task_straggling"};

enum Placement : size_t {
  kPlaceProbe,
  kPlaceTask,
  kPlaceSpeculative,
  kDeliverStolen,
  kNumPlacements
};
inline constexpr std::array<std::string_view, kNumPlacements> kPlacementNames = {
    "place_probe", "place_task", "place_speculative", "deliver_stolen"};

// Raw interval sums; the timer cost is subtracted when metrics are derived.
struct CallStat {
  uint64_t calls = 0;
  int64_t busy_ns = 0;        // Whole calls, nested placements included.
  int64_t child_ns = 0;       // Nested placement calls (callbacks only).
  uint64_t child_calls = 0;
};

// One recorded interval. Ids are local to a run: 0 run, 1 build, 2 loop,
// 3 finish, then callbacks and placements in call order.
struct Span {
  std::string_view name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t id = 0;
  int32_t parent = -1;  // -1: none.
  int64_t job = -1;     // The request id; -1 when the call has no job.
};

// What one traced run measured.
struct RunLayers {
  std::string scheduler;  // The base scheduler's registry name.
  uint32_t workers = 0;
  int64_t factory_ns = 0;
  int64_t attached_ns = 0;
  int64_t last_return_ns = 0;
  int64_t deleted_ns = 0;
  double build_rss_mb = 0.0;  // Process RSS when Attach returned.
  std::array<CallStat, kNumCallbacks> callbacks{};
  std::array<CallStat, kNumPlacements> placements{};
  std::vector<Span> spans;
  uint64_t spans_dropped = 0;
};

// Registers "e2e-traced/<name>" for every scheduler registered so far.
// Call once, before any traced run starts.
void RegisterTracedSchedulers();

std::string TracedName(std::string_view scheduler);

// Traced runs started after this call keep their first `max_spans`
// callback/placement spans (0 keeps only the four run-level spans).
void SetSpanCapture(size_t max_spans);

// Removes and returns every traced run finished since the last call, in
// completion order.
std::vector<RunLayers> TakeFinishedRuns();

}  // namespace e2e
}  // namespace hawk

#endif  // HAWK_BENCH_E2E_LAYER_TRACE_H_
