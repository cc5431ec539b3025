"""ccakit benchmark: one seeded workload, timed end to end or per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from the src/ directory beside bench/.  The
workload's job list runs back to back in one process and one thread, as a
closed loop, PASSES[workload] times (passes), each pass with its own
seeded draws.  S is the length the untraced passes were sized for; a run
that takes longer says so on stderr.  Every job's output is checked.
Every time reported is scaled to a fixed machine speed (see REF_SECONDS).
The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`:

- `--trace 0`: the end-to-end metrics, with tracing off.
- `--trace 1`: the per-layer metrics.  Passes alternate between untraced
  and traced, TRACED_PAIRS of each; spans are kept in memory and written to
  bench/out/spans-<workload>-<seed>.jsonl when the run ends.

See bench/README.md for the workloads, metrics and input rules.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

DEFAULT_SEED = 12345
# Untraced passes per run, each 6.5-17 s (cca_verdict) or 4.5-8 s
# (triple_certify) of unscaled time on a 2-core machine.  The count is
# fixed, so the estimate does not depend on how fast the program is.
PASSES = {"cca_verdict": 4, "triple_certify": 6}
# A traced run makes this many untraced / traced pairs of passes.
TRACED_PAIRS = 2

# Reference speed.  The machine this was built on runs the same code up to
# twice as slowly for a minute or more at a time, in CPU time as much as in
# wall time.  So every time is scaled to one machine speed: a fixed
# pure-Python loop is timed between jobs, and a pass's times are multiplied
# by REF_SECONDS / (median loop time in that pass).  The loop is part of the
# benchmark, so a change to the program does not change it.
REF_SECONDS = 0.020
REF_ROUNDS = 3000
# Seconds of job time between two reference samples.
REF_EVERY = 0.2
SETUP_REF_SAMPLES = 5
_REF_PERM = random.Random(7).sample(range(128), 128)


def reference_sample() -> float:
    """Seconds one run of the fixed reference loop takes, collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        x, seen = list(range(128)), {}
        for k in range(REF_ROUNDS):
            x = [_REF_PERM[i] for i in x]
            seen[tuple(x)] = k
        return time.perf_counter() - start
    finally:
        gc.enable()


def speed_scale(samples) -> float:
    """Factor that takes times measured beside `samples` to REF_SECONDS."""
    return REF_SECONDS / statistics.median(samples)


def _import_library():
    """Import ccakit from this checkout's src/, or exit with code 2."""
    if not (SRC / "ccakit" / "__init__.py").is_file():
        print(f"error: no ccakit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ccakit
    if Path(ccakit.__file__).resolve().parent != SRC / "ccakit":
        print(f"error: ccakit imported from {ccakit.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def setup(workload: str, seed: int):
    """Import ccakit and generate the inputs of every pass.

    Returns the job list of each pass and the set-up time, scaled by
    reference samples taken right after it.
    """
    start = time.perf_counter()
    _import_library()
    import workloads
    jobs = workloads.generate(workload, seed, PASSES[workload])
    took = time.perf_counter() - start
    refs = [reference_sample() for _ in range(SETUP_REF_SAMPLES)]
    return jobs, took * speed_scale(refs)


def _setup_probe(workload: str, seed: int) -> float:
    """Scaled set-up time of a fresh interpreter, as it measured it."""
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run_pass(jobs, tracer=None):
    """Run every job once, with reference samples between jobs.

    Returns (job latencies, failures, check errors, reference samples).
    """
    import workloads
    gc.collect()
    latencies, failed, wrong = [], 0, 0
    refs, since = [reference_sample()], 0.0
    for i, job in enumerate(jobs):
        if since >= REF_EVERY:
            refs.append(reference_sample())
            since = 0.0
        if tracer is not None:
            tracer.job, tracer.active = f"{i}:{job.label}", True
        start = time.perf_counter()
        try:
            G, out = workloads.RUNNERS[job.kind](*job.args)
        except Exception:   # a failing job is counted and the loop goes on
            latencies.append(time.perf_counter() - start)
            since += latencies[-1]
            failed += 1
            print(f"job {job.label} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.active = False
        latencies.append(time.perf_counter() - start)
        since += latencies[-1]
        try:
            workloads.CHECKS[job.kind](G, out, *job.args)
        except Exception:   # a wrong output, or one the check cannot read
            failed += 1
            wrong += 1
            print(f"job {job.label} failed its check:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
    refs.append(reference_sample())
    return latencies, failed, wrong, refs


def measure(job_lists, tracer=None):
    """Run one pass of each job list; returns per-pass records.

    With a tracer, each job list runs twice: an untraced and a traced pass.
    """
    kinds = (False, True) if tracer is not None else (False,)
    passes = []
    for jobs in job_lists:
        for traced in kinds:
            first_span = len(tracer.spans) if traced else 0
            if traced:
                tracer.install()
            try:
                lat, failed, wrong, refs = run_pass(
                    jobs, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append({"traced": traced, "latencies": lat,
                           "failed": failed, "wrong": wrong,
                           "ref_s": statistics.median(refs),
                           "scale": speed_scale(refs),
                           "layers": tracer.layer_totals(first_span)
                           if traced else None})
    return passes


def median_wall(passes) -> float:
    """Median over the passes of a pass's scaled wall time."""
    return statistics.median(sum(p["latencies"]) * p["scale"]
                             for p in passes)


def end_to_end(passes, setup_s: float) -> dict:
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "wall_s": (median_wall(passes), "s"),
        "job_p50_s": (statistics.median(
            t * p["scale"] for p in passes for t in p["latencies"]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "job_success_share": ((attempted - failed) / attempted, "share"),
    }


def per_layer(passes) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {}
    for key in traced[0]["layers"]:
        values = [p["layers"][key] for p in traced]
        if key.endswith("_s"):
            out[key] = (statistics.median(
                v * p["scale"] for v, p in zip(values, traced)), "s")
        else:   # whole numbers: the work of all traced passes
            out[key] = (sum(values), "count")
    sets = out["colourauts.sets_checked"][0]
    out["colourauts.connected_share"] = (
        out["colourauts.connected_checked"][0] / sets if sets else 0.0,
        "share")
    out["bench.trace_overhead_s"] = (
        median_wall(traced) - median_wall(plain), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    jobs, own_setup = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        begin = time.perf_counter()
        passes = measure(jobs[:TRACED_PAIRS], tracer)
        metrics = per_layer(passes)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        # one fresh set-up before each pass, so that the set-up samples
        # spread over the run like the passes do
        setups, passes = [own_setup], []
        begin = time.perf_counter()
        for pass_jobs in jobs:
            setups.append(_setup_probe(args.workload, args.seed))
            passes += measure([pass_jobs])
        metrics = end_to_end(passes, statistics.median(setups))

    took = time.perf_counter() - begin
    if not args.trace and took > args.seconds:
        print(f"note: the {len(passes)} passes took {took:.1f} s, more than "
              f"--seconds {args.seconds:g}", file=sys.stderr)
    result = {
        "correct": not any(p["wrong"] for p in passes),
        "attempted": sum(len(p["latencies"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload} seed={args.seed}: {len(jobs[0])} jobs; per pass, "
          "unscaled wall s / reference loop ms: "
          + " ".join(f"{sum(p['latencies']):.3f}/{p['ref_s'] * 1e3:.2f}"
                     f"{'t' if p['traced'] else ''}" for p in passes),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
