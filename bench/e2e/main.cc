// hawk_e2e: the repository's end-to-end benchmark.
//
//   hawk_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//            [--scale X] [--out DIR] [--git-sha SHA]
//
// One process runs one workload. It generates the inputs from --seed, runs
// one untimed warm-up call, then timed calls until --seconds have passed (at
// least five, two pairs in the traced run, one with --seconds 0), setting the
// inputs up afresh before each to time the set-up. Every result is checked;
// a failed check makes the process exit 1.
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate traced
// run: repetitions alternate an untraced call and a call through the
// layer-tracing schedulers (layer_trace.h) and measure the per-layer metrics.
// Either way the human-readable table goes to stdout, the full result (with a
// context block naming the machine and build) to
// <out>/<workload>-seed<N>-trace<T>.json, and the last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"} with every
// metric measured. run.sh narrows that line to the metrics BENCHMARK.json
// lists for the mode.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/e2e/layer_trace.h"
#include "bench/e2e/workloads.h"
#include "src/common/check.h"
#include "src/common/histogram.h"

namespace hawk {
namespace e2e {
namespace {

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

// Python's statistics.quantiles(values, n=4) (the default 'exclusive'
// method), so the harness and compare.py agree on quartiles.
std::vector<double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t ld = v.size();
  if (ld == 0) {
    return {0.0, 0.0, 0.0};
  }
  if (ld == 1) {
    return {v[0], v[0], v[0]};
  }
  std::vector<double> q;
  const auto n = static_cast<int64_t>(ld);
  for (int64_t i = 1; i < 4; ++i) {
    const int64_t j = std::min(std::max<int64_t>(i * (n + 1) / 4, 1), n - 1);
    const auto delta = static_cast<double>(i * (n + 1) - j * 4);
    const auto hi = static_cast<size_t>(j);
    q.push_back((v[hi - 1] * (4.0 - delta) + v[hi] * delta) / 4.0);
  }
  return q;
}

double Median(const std::vector<double>& v) { return Quartiles(v)[1]; }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Ratio(uint64_t num, uint64_t den) {
  return Ratio(static_cast<double>(num), static_cast<double>(den));
}

// ---------------------------------------------------------------------------
// Metrics and output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  // Per-repetition values; empty when exact.
  std::string note;
};

class MetricSet {
 public:
  void Exact(const std::string& name, const std::string& unit, double value,
             std::string note = "") {
    metrics_.push_back({name, unit, value, {}, std::move(note)});
  }
  // The value is the median of the repetitions.
  void Sampled(const std::string& name, const std::string& unit, std::vector<double> samples) {
    const double median = Median(samples);
    metrics_.push_back({name, unit, median, std::move(samples), ""});
  }
  // The value is the highest repetition. For a rate of deterministic work:
  // every repetition does the same work, and the host's other tenants only
  // ever slow a repetition down, so the fastest one is the least disturbed.
  void Best(const std::string& name, const std::string& unit, std::vector<double> samples) {
    const double best = *std::max_element(samples.begin(), samples.end());
    metrics_.push_back({name, unit, best, std::move(samples), "fastest repetition"});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit of the measured value; non-finite values are not JSON.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      const size_t value =
          colon == std::string::npos ? colon : line.find_first_not_of(" \t", colon + 1);
      if (value != std::string::npos) {
        return line.substr(value);
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  double scale = 1.0;
  std::string out = "bench/e2e/out";
  std::string git_sha = "unknown";
};

struct Outcome {
  MetricSet metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t reps = 0;
  uint64_t digest = 0;  // Of the warm-up's results; every later call must match.
};

std::string ContextJson(const Options& opt, const Outcome& outcome) {
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"bench_threads\": " << BenchThreads()
    << ", \"cpu_model\": " << JsonString(CpuModel())
    << ", \"compiler\": " << JsonString(HAWK_E2E_COMPILER)
    << ", \"cxx_flags\": " << JsonString(HAWK_E2E_CXX_FLAGS)
    << ", \"build_type\": " << JsonString(HAWK_E2E_BUILD_TYPE)
    << ", \"git_sha\": " << JsonString(opt.git_sha) << ", \"workload\": "
    << JsonString(opt.workload) << ", \"seed\": " << opt.seed
    << ", \"seconds\": " << JsonNumber(opt.seconds) << ", \"scale\": " << JsonNumber(opt.scale)
    << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"warmup_reps\": 1, \"reps\": "
    << outcome.reps << "}";
  return o.str();
}

// `detailed` adds each metric's repetition samples, quartiles and note.
std::string MetricsJson(const MetricSet& set, bool detailed) {
  std::ostringstream o;
  o << "{";
  bool first = true;
  for (const Metric& m : set.all()) {
    o << (first ? "" : ", ") << JsonString(m.name) << ": {\"value\": " << JsonNumber(m.value)
      << ", \"unit\": " << JsonString(m.unit);
    if (detailed && !m.samples.empty()) {
      const std::vector<double> q = Quartiles(m.samples);
      o << ", \"q1\": " << JsonNumber(q[0]) << ", \"median\": " << JsonNumber(q[1])
        << ", \"q3\": " << JsonNumber(q[2]) << ", \"n\": " << m.samples.size()
        << ", \"samples\": [";
      for (size_t i = 0; i < m.samples.size(); ++i) {
        o << (i == 0 ? "" : ", ") << JsonNumber(m.samples[i]);
      }
      o << "]";
    }
    if (detailed && !m.note.empty()) {
      o << ", \"note\": " << JsonString(m.note);
    }
    o << "}";
    first = false;
  }
  o << "}";
  return o.str();
}

void PrintTable(const Options& opt, const MetricSet& set) {
  std::printf("\n%-44s %18s  %-8s %s\n", "metric", "value", "unit",
              "[q1, median, q3] (n) / note");
  for (const Metric& m : set.all()) {
    std::printf("%-44s %18.6g  %-8s", m.name.c_str(), m.value, m.unit.c_str());
    if (!m.samples.empty()) {
      const std::vector<double> q = Quartiles(m.samples);
      std::printf(" [%.6g, %.6g, %.6g] (n=%zu)", q[0], q[1], q[2], m.samples.size());
    }
    if (!m.note.empty()) {
      std::printf(" %s", m.note.c_str());
    }
    std::printf("\n");
  }
  std::printf("\nworkload %s, seed %llu, %s run\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? "traced" : "untraced");
}

// ---------------------------------------------------------------------------
// Runs.
// ---------------------------------------------------------------------------

struct Call {
  std::vector<RunResult> results;
  double wall_s = 0.0;
};

Call TimedCall(const Workload& w, const Inputs& in, bool traced) {
  Call call;
  const int64_t start = HostNowNs();
  call.results = RunWorkload(w, in, traced);
  call.wall_s = static_cast<double>(HostNowNs() - start) * 1e-9;
  return call;
}

// Checks every result of one call. The first call's digest becomes the one
// every later call must reproduce.
void Check(const Workload& w, const Inputs& in, const Call& call, const char* what,
           Outcome* outcome) {
  for (const RunResult& r : call.results) {
    ++outcome->attempted;
    const std::string error = CheckResult(*in.trace, r, w.faults);
    if (!error.empty()) {
      ++outcome->failed;
      std::fprintf(stderr, "check failed (%s): %s\n", what, error.c_str());
    }
  }
  const uint64_t digest = DigestResults(call.results);
  if (outcome->digest == 0) {
    outcome->digest = digest;
  } else if (digest != outcome->digest) {
    ++outcome->failed;
    std::fprintf(stderr, "check failed (%s): digest %016llx != %016llx\n", what,
                 static_cast<unsigned long long>(digest),
                 static_cast<unsigned long long>(outcome->digest));
  }
}

uint64_t PaperEventsOf(const Call& call) {
  uint64_t events = 0;
  for (const RunResult& r : call.results) {
    events += PaperEvents(r.counters);
  }
  return events;
}

RunCounters SumCounters(const std::vector<RunResult>& results) {
  RunCounters s;
  for (const RunResult& r : results) {
    const RunCounters& c = r.counters;
    s.jobs += c.jobs;
    s.tasks_launched += c.tasks_launched;
    s.probes_placed += c.probes_placed;
    s.probe_requests += c.probe_requests;
    s.cancels += c.cancels;
    s.central_tasks_placed += c.central_tasks_placed;
    s.steal_attempts += c.steal_attempts;
    s.steal_victim_probes += c.steal_victim_probes;
    s.steal_successes += c.steal_successes;
    s.events += c.events;
    s.short_tasks_started += c.short_tasks_started;
    s.short_queue_wait_us += c.short_queue_wait_us;
    s.tasks_re_dispatched += c.tasks_re_dispatched;
    s.wasted_work_us += c.wasted_work_us;
    s.tasks_speculated += c.tasks_speculated;
    s.speculative_wins += c.speculative_wins;
  }
  return s;
}

// Starts another repetition while it is predicted to end inside the measuring
// window, after at least `min_reps` (one with --seconds 0).
bool Continue(const Options& opt, int64_t start_ns, size_t reps, size_t min_reps) {
  if (reps < (opt.seconds > 0.0 ? min_reps : 1)) {
    return true;
  }
  const double elapsed = static_cast<double>(HostNowNs() - start_ns) * 1e-9;
  return elapsed + elapsed / static_cast<double>(reps) <= opt.seconds;
}

// Set-up samples of one run.
struct SetUpTimes {
  std::vector<double> generate_s;
  std::vector<double> prepare_s;
  std::vector<double> total_s;
};

constexpr int kMaxSetupsPerCall = 8;
constexpr double kMinSetupPerCallS = 0.25;

// Makes the next call's inputs in `in`, timing the set-up. A set-up far
// shorter than a call is repeated, so that its median rests on several
// samples spread over the run. Each copy is freed before the next is made,
// so peak RSS never holds two.
void SetUp(const Options& opt, const Workload& w, Inputs* in, SetUpTimes* times) {
  double spent = 0.0;
  for (int i = 0; i < kMaxSetupsPerCall && (i == 0 || spent < kMinSetupPerCallS); ++i) {
    *in = Inputs();
    *in = MakeInputs(w, opt.seed, opt.scale);
    times->generate_s.push_back(in->generate_s);
    times->prepare_s.push_back(in->prepare_s);
    times->total_s.push_back(in->generate_s + in->prepare_s);
    spent += times->total_s.back();
  }
}

// The untimed first call: page faults and allocator growth land here. Its
// results fix the digest and give the simulated latencies, which are exact.
std::vector<RunResult> WarmUp(const Workload& w, const Inputs& in, Outcome* outcome) {
  Call warmup = TimedCall(w, in, false);
  Check(w, in, warmup, "warm-up", outcome);
  const RunResult& ref = warmup.results[ReferencePoint(w)];
  const Samples shorts = ref.RuntimesSeconds(false);
  const Samples longs = ref.RuntimesSeconds(true);
  const std::string point = w.sweep ? "hawk/1500 workers, " : "";
  const std::string n_short = point + "n=" + std::to_string(shorts.Count()) + " short jobs";
  const std::string n_long = point + "n=" + std::to_string(longs.Count()) + " long jobs";
  MetricSet& m = outcome->metrics;
  m.Exact("sim_short_p50_s", "sim_s", shorts.Empty() ? 0.0 : shorts.Percentile(50), n_short);
  m.Exact("sim_short_p99_s", "sim_s", shorts.Empty() ? 0.0 : shorts.Percentile(99), n_short);
  m.Exact("sim_long_p99_s", "sim_s", longs.Empty() ? 0.0 : longs.Percentile(99), n_long);
  return std::move(warmup.results);
}

Outcome RunUntraced(const Options& opt, const Workload& w) {
  Outcome outcome;
  SetUpTimes setup;
  Inputs in;
  SetUp(opt, w, &in, &setup);
  WarmUp(w, in, &outcome);
  std::vector<double> events_per_s;
  const int64_t start = HostNowNs();
  while (Continue(opt, start, outcome.reps, 5)) {
    SetUp(opt, w, &in, &setup);
    const Call call = TimedCall(w, in, false);
    Check(w, in, call, "timed rep", &outcome);
    events_per_s.push_back(static_cast<double>(PaperEventsOf(call)) / call.wall_s);
    ++outcome.reps;
  }
  outcome.metrics.Best("events_per_s", "1/s", events_per_s);
  outcome.metrics.Sampled("setup_s", "s", std::move(setup.total_s));
  outcome.metrics.Exact("peak_rss_mb", "MB", PeakRssMb());
  return outcome;
}

struct LayerValue {
  std::string unit;
  double value = 0.0;
};

// One traced call's per-layer values, from every run (sweep point) it made.
std::map<std::string, LayerValue> LayerValues(const Workload& w,
                                              const std::vector<RunLayers>& runs, double wall_s,
                                              double timer_ns) {
  std::map<std::string, LayerValue> v;
  const auto put = [&v](const std::string& name, const char* unit, double value) {
    v[name] = {unit, value};
  };
  const double t = timer_ns * 1e-9;
  double build = 0.0;
  double loop_raw = 0.0;
  double loop = 0.0;
  double finish = 0.0;
  double point_sum = 0.0;
  double point_max = 0.0;
  double policy_busy = 0.0;
  double rss = 0.0;
  std::array<CallStat, kNumCallbacks> cb{};
  std::array<CallStat, kNumPlacements> pl{};
  for (const RunLayers& r : runs) {
    const double run_build = static_cast<double>(r.attached_ns - r.factory_ns) * 1e-9;
    const double run_loop = static_cast<double>(r.last_return_ns - r.attached_ns) * 1e-9;
    const double run_finish = static_cast<double>(r.deleted_ns - r.last_return_ns) * 1e-9;
    build += run_build;
    loop_raw += run_loop;
    finish += run_finish;
    point_sum += run_build + run_loop + run_finish;
    point_max = std::max(point_max, run_build + run_loop + run_finish);
    rss = std::max(rss, r.build_rss_mb);
    uint64_t reads = 0;
    for (size_t i = 0; i < kNumCallbacks; ++i) {
      cb[i].calls += r.callbacks[i].calls;
      cb[i].busy_ns += r.callbacks[i].busy_ns;
      cb[i].child_ns += r.callbacks[i].child_ns;
      cb[i].child_calls += r.callbacks[i].child_calls;
      reads += 2 * r.callbacks[i].calls;
    }
    for (size_t i = 0; i < kNumPlacements; ++i) {
      pl[i].calls += r.placements[i].calls;
      pl[i].busy_ns += r.placements[i].busy_ns;
      reads += 2 * r.placements[i].calls;
    }
    // Every clock read the tracing added inside the loop is removed from it.
    loop += run_loop - t * static_cast<double>(reads);
  }
  put("scheduler.driver.build_s", "s", build);
  put("scheduler.driver.loop_s", "s", loop);
  put("scheduler.driver.finish_s", "s", finish);
  put("scheduler.driver.build_rss_mb", "MB", rss);
  // A timed interval holds about one clock read of its own plus two per
  // nested timed call.
  for (size_t i = 0; i < kNumPlacements; ++i) {
    const std::string prefix = "scheduler.driver." + std::string(kPlacementNames[i]);
    put(prefix + ".calls", "count", static_cast<double>(pl[i].calls));
    put(prefix + ".busy_s", "s",
        static_cast<double>(pl[i].busy_ns) * 1e-9 - t * static_cast<double>(pl[i].calls));
  }
  for (size_t i = 0; i < kNumCallbacks; ++i) {
    const std::string prefix = "scheduler.policy." + std::string(kCallbackNames[i]);
    const double busy = static_cast<double>(cb[i].busy_ns) * 1e-9 -
                        t * static_cast<double>(cb[i].calls + 2 * cb[i].child_calls);
    const double child =
        static_cast<double>(cb[i].child_ns) * 1e-9 - t * static_cast<double>(cb[i].child_calls);
    put(prefix + ".calls", "count", static_cast<double>(cb[i].calls));
    put(prefix + ".busy_s", "s", busy);
    put(prefix + ".self_s", "s", busy - child);
    policy_busy += busy;
  }
  put("scheduler.driver.self_s", "s", loop - policy_busy);
  put("scheduler.policy.share", "ratio", Ratio(policy_busy, loop));
  const double pool = w.sweep ? std::min<double>(BenchThreads(), static_cast<double>(runs.size()))
                              : 1.0;
  put("scheduler.sweep.points", "count", static_cast<double>(runs.size()));
  put("scheduler.sweep.point_busy_s", "s", point_sum);
  put("scheduler.sweep.max_point_s", "s", point_max);
  put("scheduler.sweep.idle_s", "s", pool * wall_s - point_sum);
  put("scheduler.sweep.parallel_eff", "ratio", Ratio(point_sum, pool * wall_s));
  // build + loop + finish against the traced call itself (1.0 = all of the
  // call's time is inside the traced window).
  put("trace.accounted_frac", "ratio", Ratio(build + loop_raw + finish, pool * wall_s));
  return v;
}

void WriteSpans(const std::string& path, const std::vector<RunLayers>& runs) {
  std::ofstream out(path);
  for (size_t k = 0; k < runs.size(); ++k) {
    const RunLayers& r = runs[k];
    for (const Span& s : r.spans) {
      out << "{\"run\": " << k << ", \"id\": " << s.id << ", \"parent\": "
          << (s.parent < 0 ? std::string("null") : std::to_string(s.parent))
          << ", \"name\": " << JsonString(s.name) << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"request\": "
          << (s.job < 0 ? std::string("null") : std::to_string(s.job));
      if (s.id == 0) {
        out << ", \"scheduler\": " << JsonString(r.scheduler) << ", \"workers\": " << r.workers
            << ", \"spans_dropped\": " << r.spans_dropped;
      }
      out << "}\n";
    }
  }
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

// Spans kept per traced run (sweep point) of the first traced call; enough to
// see a run's start-up and steady state while the buffer stays a few MB.
constexpr size_t kSpansPerRun = 2000;

Outcome RunTraced(const Options& opt, const Workload& w) {
  Outcome outcome;
  RegisterTracedSchedulers();
  SetUpTimes setup;
  Inputs in;
  SetUp(opt, w, &in, &setup);
  {
    // Counter ratios are exact: read them from the untraced warm-up.
    const std::vector<RunResult> warmup = WarmUp(w, in, &outcome);
    const RunCounters c = SumCounters(warmup);
    uint64_t busy_us = 0;
    for (const RunResult& r : warmup) {
      busy_us += static_cast<uint64_t>(r.total_busy_us);
    }
    MetricSet& m = outcome.metrics;
    m.Exact("sim.events_per_paper_event", "ratio", Ratio(c.events, PaperEvents(c)));
    m.Exact("core.steal.success_ratio", "ratio", Ratio(c.steal_successes, c.steal_attempts));
    m.Exact("core.steal.victims_per_attempt", "ratio",
            Ratio(c.steal_victim_probes, c.steal_attempts));
    m.Exact("core.probe.cancel_ratio", "ratio", Ratio(c.cancels, c.probe_requests));
    m.Exact("cluster.short_wait_mean_s", "sim_s",
            Ratio(static_cast<double>(c.short_queue_wait_us) * 1e-6,
                  static_cast<double>(c.short_tasks_started)));
    m.Exact("cluster.wasted_work_frac", "ratio", Ratio(c.wasted_work_us, busy_us));
    m.Exact("scheduler.driver.redispatched", "count", static_cast<double>(c.tasks_re_dispatched));
    m.Exact("core.spec.win_ratio", "ratio", Ratio(c.speculative_wins, c.tasks_speculated));
  }
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> timer_ns_samples;
  std::map<std::string, std::pair<std::string, std::vector<double>>> layers;
  const std::string spans_path = opt.out + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + "-spans.jsonl";
  const int64_t start = HostNowNs();
  while (Continue(opt, start, outcome.reps, 2)) {
    SetUp(opt, w, &in, &setup);
    // Alternate which call goes first so drift does not favour either.
    for (int half = 0; half < 2; ++half) {
      const bool traced = (half == 0) == (outcome.reps % 2 == 0);
      double timer_ns = 0.0;
      if (traced) {
        SetSpanCapture(outcome.reps == 0 ? kSpansPerRun : 0);
        // Calibrated next to each traced call, so under the same conditions.
        timer_ns = CalibrateTimerNs();
        timer_ns_samples.push_back(timer_ns);
      }
      const Call call = TimedCall(w, in, traced);
      Check(w, in, call, traced ? "traced rep" : "untraced rep", &outcome);
      if (!traced) {
        untraced_s.push_back(call.wall_s);
        continue;
      }
      traced_s.push_back(call.wall_s);
      const std::vector<RunLayers> runs = TakeFinishedRuns();
      HAWK_CHECK_EQ(runs.size(), call.results.size());
      for (const auto& [name, layer] : LayerValues(w, runs, call.wall_s, timer_ns)) {
        layers[name].first = layer.unit;
        layers[name].second.push_back(layer.value);
      }
      if (outcome.reps == 0) {
        WriteSpans(spans_path, runs);
      }
    }
    ++outcome.reps;
  }
  MetricSet& m = outcome.metrics;
  m.Sampled("workload.generate_s", "s", std::move(setup.generate_s));
  m.Sampled("workload.prepare_s", "s", std::move(setup.prepare_s));
  for (auto& [name, samples] : layers) {
    m.Sampled(name, samples.first, std::move(samples.second));
  }
  m.Sampled("trace.timer_ns", "ns", std::move(timer_ns_samples));
  m.Exact("trace.overhead_frac", "ratio",
          Ratio(Median(traced_s) - Median(untraced_s), Median(untraced_s)));
  return outcome;
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "hawk_e2e: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: hawk_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1]\n"
               "                [--scale X] [--out DIR] [--git-sha SHA]\nworkloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", std::string(w.name).c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double ParseNumber(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end == nullptr || *end != '\0' || !std::isfinite(value) || value < 0.0) {
    Usage("bad value for " + flag + ": '" + text + "'");
  }
  return value;
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      const double seed = ParseNumber(flag, value);
      if (seed != std::floor(seed) || seed > 9e15) {
        Usage("--seed must be a whole number");
      }
      opt.seed = static_cast<uint64_t>(seed);
    } else if (flag == "--seconds") {
      opt.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace must be 0 or 1");
      }
      opt.trace = value == "1";
    } else if (flag == "--scale") {
      opt.scale = ParseNumber(flag, value);
      if (opt.scale <= 0.0 || opt.scale > 1.0) {
        Usage("--scale must be in (0, 1]");
      }
    } else if (flag == "--out") {
      opt.out = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (FindWorkload(opt.workload) == nullptr) {
    Usage("unknown workload '" + opt.workload + "'");
  }
  return opt;
}

int Main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  const Workload& w = *FindWorkload(opt.workload);
  std::filesystem::create_directories(opt.out);
  const Outcome outcome = opt.trace ? RunTraced(opt, w) : RunUntraced(opt, w);
  PrintTable(opt, outcome.metrics);

  const bool correct = outcome.failed == 0;
  const std::string path = opt.out + "/" + opt.workload + "-seed" + std::to_string(opt.seed) +
                           "-trace" + (opt.trace ? "1" : "0") + ".json";
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(outcome.digest));
  std::ofstream file(path);
  file << "{\"context\": " << ContextJson(opt, outcome) << ",\n \"digest\": \"" << digest
       << "\", \"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << outcome.attempted << ", \"failed\": " << outcome.failed
       << ",\n \"metrics\": " << MetricsJson(outcome.metrics, true) << "}\n";
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("result file: %s\n", path.c_str());

  // run.sh keeps the metrics BENCHMARK.json lists for this mode.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              MetricsJson(outcome.metrics, false).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace hawk

int main(int argc, char** argv) { return hawk::e2e::Main(argc, argv); }
