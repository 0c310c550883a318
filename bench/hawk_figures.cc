// hawk_figures: reproduces one figure, table or ablation of the paper's §4
// evaluation per run and prints it as text tables and CDF series.
//
//   hawk_figures --figure=fig5                      # one entry, default scale
//   hawk_figures --figure=ablation-faults --scale=0.1 --proto=0 --json=f.json
//   hawk_figures --figure=all --scale=0.02 --proto=0   # every entry in turn
//
// Flags (each entry reads the ones that apply to it):
//   --figure=NAME       entry to run (see the list printed on a bad name)
//   --jobs=N            job count, overriding the entry's default x scale
//   --scale=X           multiplies the default job counts (else the
//                       HAWK_BENCH_SCALE environment variable, else 1)
//   --seed=N            workload seed, overriding the entry's default
//   --threads=N         sweep pool size (0, the default: hardware concurrency)
//   --json=PATH, --csv=PATH   machine-readable export, where an entry has one
//   --proto=0           skip the wall-clock prototype half (faults, stragglers)
//   --proto-jobs=N, --proto-work-seconds=S   size of that prototype half
//   --work-seconds=S, --num-ratios=N         size of fig16-17's prototype runs
//
// An unknown flag, an unknown figure or no --figure exits with status 2 and
// the valid names.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/figures.h"

namespace {

// fig16-17 registers hawk-lb when it runs, so it comes last: under
// --figure=all the registry-wide ablations still see only the built-ins.
std::vector<hawk::figures::Figure> AllFigures() {
  std::vector<hawk::figures::Figure> figures = hawk::figures::PaperFigures();
  for (const auto& more : {hawk::figures::AblationFigures(), hawk::figures::PrototypeFigures()}) {
    figures.insert(figures.end(), more.begin(), more.end());
  }
  return figures;
}

int Usage(const std::vector<hawk::figures::Figure>& figures, const std::string& problem) {
  std::fprintf(stderr, "hawk_figures: %s\nusage: hawk_figures --figure=NAME [flags]\n\nfigures:\n",
               problem.c_str());
  for (const hawk::figures::Figure& figure : figures) {
    std::fprintf(stderr, "  %-24s %s\n", figure.name.c_str(), figure.title.c_str());
  }
  std::fprintf(stderr, "  %-24s %s\n\nflags:", "all", "every entry above, in order");
  for (const std::string& name : hawk::figures::kFlagNames) {
    std::fprintf(stderr, " --%s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const hawk::Flags flags(argc, argv);
  const std::vector<hawk::figures::Figure> figures = AllFigures();
  if (const auto unknown = flags.UnknownNames(hawk::figures::kFlagNames); !unknown.empty()) {
    return Usage(figures, "unknown flag --" + unknown.front());
  }
  if (!flags.positional().empty()) {
    return Usage(figures, "unexpected argument \"" + flags.positional().front() + "\"");
  }
  const std::string wanted = flags.GetString("figure", "");
  bool found = false;
  for (const hawk::figures::Figure& figure : figures) {
    if (wanted != "all" && figure.name != wanted) {
      continue;
    }
    found = true;
    if (const int status = figure.run(flags); status != 0) {
      return status;
    }
  }
  return found ? 0 : Usage(figures, wanted.empty() ? "no --figure given"
                                                   : "unknown figure \"" + wanted + "\"");
}
