#!/usr/bin/env python3
"""Runs and compares hawk_e2e results (Python 3 standard library only).

  hawk_e2e ... | compare.py select --trace 0|1
      Copies hawk_e2e's output and narrows its last line to the metrics
      BENCHMARK.json lists for the mode (end_to_end for 0, per_layer for 1),
      failing if one is missing or has another unit. run.sh does this.

  compare.py agree --out FILE [--runs 10] [--first-seed 1] [--seconds S]
                   [--workload W ...] [--against FILE]
      Runs every workload once per seed and reports, per end-to-end metric,
      the median, the quartiles and the spread (quartile distance over the
      median) against the metric's bound. With --against, also the drift of
      each median from an earlier set, and a check that every seed's result
      digest and simulated latencies (sim_*) repeat exactly.

  compare.py pairs --parent DIR --change DIR --out FILE [--pairs 10]
                   [--first-seed 1] [--seconds S] [--workload W ...]
      Runs parent and change checkouts alternately (which side goes first
      alternates too), one seed per pair, then prints the report below.

  compare.py report FILE
      For each workload and end-to-end metric: each side's median and
      quartiles, the change's wins, and a verdict. A gain needs wins in at
      least 9/10 of the pairs and a median gap larger than the parent's
      quartile distance. A change median worse than the parent's by more than
      the bound is a regression. When either side's spread exceeds the bound
      the metric is unresolved, unless every change run beats every parent
      run. Each pair ran one seed on both sides, so their result digests must
      match unless the change meant to alter simulated results.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def run_once(checkout, workload, seed, seconds):
    """One untraced run: its result line, plus the result digest and the
    simulated latencies (sim_*) from its result file, which a seed fixes."""
    cmd = ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # Each checkout builds into its own tree, whatever CARGO_TARGET_DIR says.
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(os.path.abspath(checkout),
                                                             ".bench_build"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} in {checkout} failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    with open(os.path.join(checkout, "bench", "e2e", "out",
                           f"{workload}-seed{seed}-trace0.json")) as f:
        full = json.load(f)
    result["digest"] = full["digest"]
    result["context"] = full["context"]
    result["exact"] = {k: v["value"] for k, v in full["metrics"].items() if k.startswith("sim_")}
    return result


def select(args):
    spec = load_spec()
    lines = sys.stdin.read().splitlines()
    if not lines:
        sys.exit("select: no output from hawk_e2e")
    result = json.loads(lines[-1])
    metrics = {}
    for m in spec["per_layer" if args.trace == 1 else "end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"select: hawk_e2e measured {m['name']} as {got}, BENCHMARK.json wants "
                     f"unit {m['unit']}")
        metrics[m["name"]] = got
    result["metrics"] = metrics
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def agree(args):
    spec = load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {}
    exact = {}
    context = {}
    for w in workloads:
        values[w] = {m["name"]: [] for m in spec["end_to_end"]}
        exact[w] = {}
        for seed in seeds:
            result = run_once(ROOT, w, seed, seconds)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: failed checks")
            for name, series in values[w].items():
                series.append(result["metrics"][name]["value"])
            exact[w][str(seed)] = {"digest": result["digest"], **result["exact"]}
            context.setdefault(w, result["context"])
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)
    earlier = None
    ok = True
    if args.against:
        with open(args.against) as f:
            earlier_set = json.load(f)
        earlier = earlier_set["workloads"]
        # Same seeds, same commit: the simulated results must repeat bit for bit.
        for w in workloads:
            for seed, now in exact[w].items():
                before = earlier_set["exact"].get(w, {}).get(seed)
                if before is not None and before != now:
                    print(f"{w} seed {seed}: simulated results differ from {args.against}")
                    ok = False
    summary = {}
    print(f"{'workload':<12} {'metric':<16} {'median':>14} {'spread':>8} {'bound':>6} "
          f"{'drift':>8}")
    for w in workloads:
        summary[w] = {}
        for m in spec["end_to_end"]:
            series = values[w][m["name"]]
            q1, med, q3 = quartiles(series)
            s = spread(series)
            entry = {"values": series, "median": med, "q1": q1, "q3": q3, "spread": s}
            drift = ""
            if earlier is not None:
                before = earlier[w][m["name"]]["median"]
                worse = (med - before) / before if m["better"] == "lower" else \
                    (before - med) / before
                entry["drift_vs_against"] = worse
                drift = f"{worse:+.3f}"
                ok &= worse <= m["bound"]
            ok &= s <= m["bound"]
            summary[w][m["name"]] = entry
            flag = "" if s <= m["bound"] / 3 else "  (spread > bound/3)"
            print(f"{w:<12} {m['name']:<16} {med:>14.6g} {s:>8.4f} {m['bound']:>6} "
                  f"{drift:>8}{flag}")
    out = {"seeds": seeds, "seconds": seconds, "context": context, "workloads": summary,
           "exact": exact}
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}; {'within' if ok else 'OUTSIDE'} the bounds")


def pairs(args):
    spec = load_spec(args.change)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs = {w: {"parent": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[w][side].append(run_once(checkout, w, seed, seconds))
            print(f"pair {i + 1}/{args.pairs} {w} done", file=sys.stderr, flush=True)
    with open(args.out, "w") as f:
        json.dump({"seconds": seconds, "runs": runs}, f, indent=1)
        f.write("\n")
    report_file(args.out, spec)


def report(args):
    report_file(args.file, load_spec())


def report_file(path, spec):
    with open(path) as f:
        runs = json.load(f)["runs"]
    print(f"{'workload':<12} {'metric':<16} {'parent [q1, q3]':>34} {'change [q1, q3]':>34} "
          f"{'wins':>6}  verdict")
    regressions = 0
    for w, sides in runs.items():
        failed = sum(r["failed"] for r in sides["change"])
        if failed > sum(r["failed"] for r in sides["parent"]):
            print(f"{w}: the change fails {failed} checks; no gain can count")
        differ = sum(1 for a, b in zip(sides["parent"], sides["change"])
                     if a["digest"] != b["digest"])
        if differ:
            print(f"{w}: simulated results differ from the parent's on {differ} of "
                  f"{len(sides['parent'])} seeds")
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in sides["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in sides["change"]]
            lower = m["better"] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            wins = sum(1 for a, b in zip(c, p) if better(a, b))
            pq, cq = quartiles(p), quartiles(c)
            gap = cq[1] - pq[1]
            worse = (gap if lower else -gap) / abs(pq[1]) if pq[1] else 0.0
            all_better = all(better(a, b) for a in c for b in p)
            if max(spread(p), spread(c)) > m["bound"] and not all_better:
                verdict = "unresolved (spread > bound)"
            elif worse > m["bound"]:
                verdict = f"REGRESSION ({worse:+.1%} > bound {m['bound']:.0%})"
                regressions += 1
            elif worse < 0 and wins >= 0.9 * len(p) and abs(gap) > pq[2] - pq[0] and \
                    failed == 0:
                verdict = f"gain ({-worse:+.1%})"
            else:
                verdict = "no change shown"
            print(f"{w:<12} {m['name']:<16} {pq[1]:>12.6g} [{pq[0]:.4g}, {pq[2]:.4g}] "
                  f"{cq[1]:>12.6g} [{cq[0]:.4g}, {cq[2]:.4g}] {wins:>3}/{len(p):<2}  {verdict}")
    if regressions:
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("select")
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.set_defaults(fn=select)
    for name, fn in (("agree", agree), ("pairs", pairs)):
        p = sub.add_parser(name)
        p.add_argument("--out", required=True)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--seconds", type=int)
        p.add_argument("--workload", action="append")
        p.set_defaults(fn=fn)
        if name == "agree":
            p.add_argument("--runs", type=int, default=10)
            p.add_argument("--against")
        else:
            p.add_argument("--parent", required=True)
            p.add_argument("--change", required=True)
            p.add_argument("--pairs", type=int, default=10)
    p = sub.add_parser("report")
    p.add_argument("file")
    p.set_defaults(fn=report)
    args = parser.parse_args()
    if args.cmd == "pairs" and args.pairs < 10:
        parser.error("a comparison needs at least 10 pairs")
    args.fn(args)


if __name__ == "__main__":
    main()
