// Arrival processes beyond homogeneous Poisson (§4.1 uses Poisson; real
// datacenter traces are diurnal and bursty — Reiss et al.'s Google-trace
// analysis, the paper's [15]). These generators let experiments probe how
// Hawk's mechanisms behave when load arrives unevenly:
//   - DiurnalArrivals: sinusoidal rate modulation around a base rate,
//     modelling day/night swings.
//   - BurstyArrivals: a two-state Markov-modulated Poisson process (on/off
//     bursts), modelling spiky submission behaviour.
// Both preserve the requested *mean* inter-arrival, so runs stay comparable
// with plain Poisson at equal offered load (verified by tests and used by
// `hawk_figures --figure=ablation-burstiness`).
#ifndef HAWK_WORKLOAD_ARRIVAL_PATTERNS_H_
#define HAWK_WORKLOAD_ARRIVAL_PATTERNS_H_

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/workload/trace.h"

namespace hawk {

struct DiurnalParams {
  DurationUs mean_interarrival_us = SecondsToUs(10.0);
  // Peak-to-mean amplitude in [0, 1): rate(t) = base * (1 + amplitude*sin).
  double amplitude = 0.5;
  // Length of one day/night cycle in simulated time.
  DurationUs period_us = SecondsToUs(86400.0 / 10.0);
};

// Overwrites submission times with a non-homogeneous Poisson process whose
// rate follows a sinusoid (implemented by thinning). Re-sorts and renumbers.
void AssignDiurnalArrivals(Trace* trace, const DiurnalParams& params, Rng* rng);

struct BurstyParams {
  DurationUs mean_interarrival_us = SecondsToUs(10.0);
  // Fraction of time spent in the burst (on) state, in (0, 1].
  double burst_duty = 0.3;
  // Rate multiplier inside a burst relative to the *mean* rate; the off-state
  // rate is derived so the overall mean matches mean_interarrival_us.
  // Requires burstiness * burst_duty < 1.
  double burstiness = 3.0;
  // Mean length of one on+off cycle.
  DurationUs cycle_us = SecondsToUs(2000.0);
};

// Overwrites submission times with a two-state MMPP. Re-sorts and renumbers.
void AssignBurstyArrivals(Trace* trace, const BurstyParams& params, Rng* rng);

}  // namespace hawk

#endif  // HAWK_WORKLOAD_ARRIVAL_PATTERNS_H_
