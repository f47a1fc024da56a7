"""z2bord benchmark: run one workload from outside and print its metrics.

    python3 bench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Workloads: paper, dim-ladder, check-stream (see bench/README.md).  Each
repetition runs in a fresh interpreter (bench/worker.py), one at a time,
until --seconds have passed and at least MIN_REPS repetitions are done.

With --trace 0 the metrics are the end-to-end ones, as medians over the
repetitions.  Times are in reference seconds: worker.py scales each
measured interval by the speed of a fixed probe loop run around it, so
that slowdowns from other tenants of a shared host largely cancel.  The
unscaled medians are printed too.  With --trace 1 untraced and traced repetitions alternate; the
metrics are the per-layer ones from the traced repetitions, plus
trace.overhead_s, the traced minus the untraced median wall_s.

Every line but the last is for people: the environment, then one line per
metric with its unit.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 1 when any
output was wrong, 2 when the checkout holds no z2bord sources.
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
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from worker import WORKLOADS  # noqa: E402

MIN_REPS = 3
# Start no repetition that could end after this many seconds of the run.
DEADLINE_S = 150.0

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "checks_per_s": "1/s",
    "check_ms_p50": "ms",
    "check_ms_p90": "ms",
}


def environment(seed: int, traced: bool) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "git_commit": git_commit(ROOT / ".git"),
        "seed": seed,
        "traced": traced,
    }


def git_commit(git: Path):
    """HEAD's commit read from the .git directory, or None outside git."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict | None:
    """One repetition in a fresh interpreter; None if it crashed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: float, trace: bool):
    """Repetitions until `seconds` have passed; traced ones alternate if trace."""
    reps, crashed = [], 0
    start = perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        began = perf_counter()
        result = run_worker(workload, seed, traced, DEADLINE_S + 25 - (began - start))
        longest = max(longest, perf_counter() - began)
        if result is None:
            crashed += 1
            break
        result["traced"] = traced
        reps.append(result)
        elapsed = perf_counter() - start
        enough = elapsed >= seconds and len(reps) >= (2 if trace else MIN_REPS)
        if enough or elapsed + longest > DEADLINE_S:
            break
    return reps, crashed


def end_to_end(reps) -> tuple[dict, dict]:
    latencies = [t for r in reps for t in r["latencies_s"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "checks_per_s": statistics.median(len(r["latencies_s"]) / r["wall_s"] for r in reps),
        "check_ms_p50": 1000 * statistics.median(latencies),
        "check_ms_p90": 1000 * statistics.quantiles(latencies, n=10)[8],
    }
    samples = {name: len(reps) for name in values}
    samples["check_ms_p50"] = samples["check_ms_p90"] = len(latencies)
    return values, samples


def per_layer(reps) -> tuple[dict, dict]:
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values = {}
    for name in sorted(traced[0]["layers"]):
        seen = [r["layers"][name] for r in traced]
        if name.endswith("_s"):
            values[name] = statistics.median(seen)
        else:
            if len(set(seen)) > 1:
                print(f"warning: {name} differs between traced repetitions: {seen}",
                      file=sys.stderr)
            values[name] = seen[0]
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    samples = {name: len(traced) for name in values}
    return values, samples


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True,
                    help="workload seed; paper and dim-ladder ignore it")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "z2bord" / "__init__.py").is_file():
        print(f"error: no z2bord sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    print("environment " + json.dumps(environment(args.seed, trace)))
    reps, crashed = run_reps(args.workload, args.seed, args.seconds, trace)
    ops_per_rep = WORKLOADS[args.workload][3]
    attempted = sum(r["attempted"] for r in reps) + crashed * ops_per_rep
    failed = sum(r["failed"] for r in reps) + crashed * ops_per_rep
    if (trace and not any(r["traced"] for r in reps)) or not reps:
        print("error: no repetition completed", file=sys.stderr)
        return 1

    if trace:
        values, samples = per_layer(reps)
        units = {name: layer_unit(name) for name in values}
    else:
        values, samples = end_to_end(reps)
        units = UNITS
    print(f"workload {args.workload}: {len(reps)} repetitions, "
          f"{attempted} operations checked, {failed} failed")
    print("unscaled medians: "
          f"setup_s {statistics.median(r['raw_setup_s'] for r in reps):.6g} s, "
          f"wall_s {statistics.median(r['raw_wall_s'] for r in reps):.6g} s")
    for name, value in values.items():
        print(f"{name:56} {value:>14.6g} {units[name]:6} (n={samples[name]})")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
