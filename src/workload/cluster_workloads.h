// Cloudera-C, Facebook 2010 and Yahoo 2011 workload synthesis (paper §4.1).
//
// The paper builds these traces from the k-means cluster descriptions in
// Chen et al.: the first cluster is the short jobs, the remaining clusters
// are long jobs; per job,
//   #tasks            ~ Exponential(cluster tasks centroid)
//   mean task runtime ~ Exponential(cluster duration centroid)
//   task runtimes     ~ Gaussian(mean, 2*mean) excluding negative values.
// The numeric centroids are not published; the tables below are calibrated so
// the generated traces reproduce the paper's Table 1 (% long jobs and
// % task-seconds) — see `hawk_figures --figure=table1`, which prints the
// generated shares beside the paper's.
#ifndef HAWK_WORKLOAD_CLUSTER_WORKLOADS_H_
#define HAWK_WORKLOAD_CLUSTER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/workload/trace.h"

namespace hawk {

struct WorkloadCluster {
  double weight;           // Fraction of jobs drawn from this cluster.
  double tasks_centroid;   // Mean of the exponential for #tasks per job.
  double dur_centroid_s;   // Mean of the exponential for mean task runtime.
};

struct ClusterWorkloadParams {
  std::string name;
  // First cluster is the short-job cluster; all others are long (paper §4.1).
  std::vector<WorkloadCluster> clusters;
  uint32_t num_jobs = 4000;
  uint32_t tasks_cap = 8000;
  double dur_cap_s = 50000.0;
  uint64_t seed = 2;
};

// Calibrated parameter sets for the three paper workloads. `num_jobs` scales
// the trace size; class proportions are preserved.
ClusterWorkloadParams ClouderaParams(uint32_t num_jobs, uint64_t seed);
ClusterWorkloadParams FacebookParams(uint32_t num_jobs, uint64_t seed);
ClusterWorkloadParams YahooParams(uint32_t num_jobs, uint64_t seed);

// Generates jobs with submit_time == 0 (assign arrivals afterwards).
Trace GenerateClusterWorkload(const ClusterWorkloadParams& params);

// The §2.3 motivation scenario behind Figure 1, scaled by `scale` (the paper
// runs 15000 servers; scale=0.1 pairs with a 1500-worker cluster): 1000 jobs,
// 95% short (100 tasks x 100 s), 5% long (1000*scale tasks x 20000 s), Poisson
// arrivals with 50 s mean. Within-job durations are constant by design.
Trace GenerateMotivationTrace(uint32_t num_jobs, double scale, uint64_t seed);

}  // namespace hawk

#endif  // HAWK_WORKLOAD_CLUSTER_WORKLOADS_H_
