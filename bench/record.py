"""Run the benchmark over several seeds; print and record every metric.

    python3 bench/record.py                       # seeds 1-10
    python3 bench/record.py --seeds 67890         # the held-out seed
    python3 bench/record.py --out bench/BENCH_<tag>.json --tag <tag>
    python3 bench/record.py --print bench/BENCH_seed.json
    python3 bench/record.py --compare bench/BENCH_seed.json NEW.json

Every workload in BENCHMARK.json runs once untraced for each seed, and
traced for the first TRACE_SEEDS seeds.  The table lists every metric by
name with its unit, sample count, median and quartiles (as
`statistics.quantiles(values, n=4)` gives them), and for end-to-end metrics
the quartile spread as a share of the median next to the bound that
BENCHMARK.json fixes.  `--compare` prints the second record with, for each
end-to-end metric, the change of its median against the first, as a share
of the first (positive is worse).  It exits 1 if any run failed a job or a
check, or if a compared median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TRACE_SEEDS = 3


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {workload} seed {seed} trace {trace}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "values": values}


def collect(workloads, seeds, seconds: int) -> dict:
    out = {}
    for w in workloads:
        runs = {"end_to_end": [], "per_layer": []}
        for i, seed in enumerate(seeds):
            runs["end_to_end"].append((seed, run_once(w, seed, seconds, 0)))
            if i < TRACE_SEEDS:
                runs["per_layer"].append((seed, run_once(w, seed, seconds, 1)))
        entry = {}
        for kind, results in runs.items():
            metrics = {}
            for _, res in results:
                for name, m in res["metrics"].items():
                    metrics.setdefault(name, (m["unit"], []))[1].append(
                        m["value"])
            entry[kind] = {name: {"unit": unit} | summarize(vals)
                           for name, (unit, vals) in metrics.items()}
        allruns = [r for rs in runs.values() for _, r in rs]
        entry["attempted"] = sum(r["attempted"] for r in allruns)
        entry["failed"] = sum(r["failed"] for r in allruns)
        entry["correct"] = all(r["correct"] for r in allruns)
        entry["seeds"] = [s for s, _ in runs["end_to_end"]]
        out[w] = entry
    return out


def worse_share(base: dict, new: dict, better: str) -> float:
    """How much worse the new median is than the base one, as a share."""
    change = (new["median"] - base["median"]) / base["median"]
    return change if better == "lower" else -change


def print_table(record: dict, spec: dict, base: dict | None = None) -> bool:
    """Print the record; returns False if a median is worse than its bound."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    within = True
    print(f"python {record['python']}, nproc {record['nproc']}, "
          f"run_seconds {record['run_seconds']}, commit {record['commit']}"
          + (f"; change against commit {base['commit']}" if base else ""))
    for w, entry in record["workloads"].items():
        print(f"\n== {w}: seeds {entry['seeds']}, jobs attempted "
              f"{entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
        print(f"{'metric':36s} {'unit':6s} {'n':>3s} {'median':>12s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}"
              + (f" {'worse':>7s}" if base else ""))
        for kind in ("end_to_end", "per_layer"):
            for name, m in entry[kind].items():
                spread = bound = worse = ""
                if kind == "end_to_end" and m["median"]:
                    spread = f"{(m['q3'] - m['q1']) / m['median']:.3f}"
                    bound = f"{e2e[name]['bound']}"
                    if base:
                        share = worse_share(
                            base["workloads"][w]["end_to_end"][name], m,
                            e2e[name]["better"])
                        worse = f"{share:+.3f}"
                        within = within and share <= e2e[name]["bound"]
                print(f"{name:36s} {m['unit']:6s} {m['n']:3d} "
                      f"{m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                      f"{spread:>7s} {bound:>6s}"
                      + (f" {worse:>7s}" if base else ""))
    return within


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--out", help="write the record to this JSON file")
    ap.add_argument("--tag", default="", help="commit or label to record")
    ap.add_argument("--print", dest="print_file", metavar="FILE",
                    help="print an existing record instead of running")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                    help="print NEW with its medians' change against BASE")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = None
    if args.compare:
        base, new = (json.loads(Path(f).read_text()) for f in args.compare)
        record = new
    elif args.print_file:
        record = json.loads(Path(args.print_file).read_text())
    else:
        seeds = [int(s) for s in args.seeds.split(",")]
        record = {
            "commit": args.tag,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "run_seconds": spec["run_seconds"],
            "workloads": collect([w["name"] for w in spec["workloads"]],
                                 seeds, spec["run_seconds"]),
        }
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    within = print_table(record, spec, base)
    ok = all(e["correct"] and not e["failed"]
             for e in record["workloads"].values())
    return 0 if ok and within else 1


if __name__ == "__main__":
    sys.exit(main())
