"""gform-lab benchmark: run one workload for a fixed time and report it.

    python3 perfbench/run.py --workload group-algebra --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the benchmark imports gform_lab from its
``src`` directory. Every pass runs the seed's whole item list in a fresh
interpreter (perfbench/worker.py), one item at a time, and checks every
verdict. Passes repeat until the time is spent, at least three per run
unless a slow program would run past the run's time limit (``--seconds``
plus 130 s): it then gets fewer passes, and a worker still busy at the limit
is stopped and the run is not correct.

With ``--trace 0`` the result carries the end-to-end metrics, each the
median over the run's samples. With ``--trace 1`` the passes alternate
traced and untraced (at least two traced), and the result carries the
per-layer metrics of the traced passes and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it print every metric by
name with its unit, the failures, and a run record. ``correct`` is false
when any item fails or when two passes of the run disagree on the item list,
the verdicts or the traced call counts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import items as item_lists
from tracer import TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
MIN_SETUP_SAMPLES = 11  # passes plus import-only launches
ITEM_LIMIT_S = 60.0
RUN_GRACE_S = 130.0  # no worker outlives --seconds plus this


class PassFailed(RuntimeError):
    pass


def launch(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker and wait for it until `deadline` (a perf_counter
    value); return (set-up seconds, its result or None)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"worker {args} still running at the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise PassFailed(f"worker {args} exited with code {proc.returncode}")
    if args == ["--setup-only"]:
        return setup_s, None
    return setup_s, json.loads(out.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_revision": None, "git_dirty": None}
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    return {"git_revision": git("rev-parse", "HEAD"),
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run_record(args, passes: int, load_start, load_end) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        **git_state(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "GFORM_LAB_MAX_LEVEL": os.environ.get("GFORM_LAB_MAX_LEVEL"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "load_avg_start": load_start,
        "load_avg_end": load_end,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(item_lists.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops and reaps its worker (see launch).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "gform_lab" / "__init__.py").is_file():
        print(f"error: no gform_lab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    expected_items = item_lists.make_items(args.workload, args.seed)
    expected_digest = item_lists.digest(expected_items)

    # Sequence of traced flags: untraced passes for --trace 0; traced first
    # and then alternating for --trace 1, so both kinds see the same drift.
    def traced_at(k: int) -> bool:
        return bool(args.trace) and k % 2 == 0

    setups, results = [], []
    problems = []
    start = time.perf_counter()
    deadline = start + args.seconds + RUN_GRACE_S
    try:
        while True:
            k = len(results)
            now = time.perf_counter()
            typical = statistics.median([r["run_s"] for r in results]) if results else 0.0
            # The import-only launches that complete the set-up samples are
            # paid from the run's time too.
            reserve = max(0, MIN_SETUP_SAMPLES - k - 1) * (statistics.median(setups)
                                                           if setups else 0.0)
            if k >= MIN_PASSES and now - start + typical + reserve > args.seconds:
                break
            # A slow program gets fewer passes rather than a worker stopped
            # at the limit.
            if k and now + 1.5 * typical > deadline:
                break
            setup_s, result = launch([args.workload, str(args.seed), str(int(traced_at(k))),
                                      str(ITEM_LIMIT_S)], deadline)
            result["traced"] = traced_at(k)
            setups.append(setup_s)
            results.append(result)
        while len(setups) < MIN_SETUP_SAMPLES:
            setups.append(launch(["--setup-only"], deadline)[0])
    except PassFailed as exc:
        problems.append(str(exc))
    load_end = os.getloadavg()

    for r in results:
        if Path(r["gform_lab_file"]).resolve().parent != (SRC / "gform_lab").resolve():
            problems.append(f"worker imported gform_lab from {r['gform_lab_file']}")
        if r["item_digest"] != expected_digest:
            problems.append("a pass ran another item list than the seed gives")
    if len({r["verdict_digest"] for r in results}) > 1:
        problems.append("passes of one seed disagree on the verdicts")
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    if not plain or (args.trace and not traced):
        problems.append("the run's time limit came before a pass of each kind finished")
    if any(t["trace"]["calls"] != traced[0]["trace"]["calls"]
           or t["trace"]["counts"] != traced[0]["trace"]["counts"] for t in traced):
        problems.append("traced passes disagree on call counts")

    attempted = sum(r["items"] for r in results) or 1
    failed = sum(len(r["failures"]) for r in results) if results else 1
    print(f"workload {args.workload}  seed {args.seed}  passes {len(results)} "
          f"({len(traced)} traced)  items per pass {len(expected_items)}")
    samples = {
        "setup_s": ("s", setups),
        "run_s": ("s", [r["run_s"] for r in plain]),
        "cpu_s": ("s", [r["cpu_s"] for r in plain]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in plain]),
    }
    metrics = {}
    for name, (unit, values) in samples.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<12} {med:12.4f} {unit:<5} q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}"
              f"  [{' '.join(f'{v:.4g}' for v in values)}]")
    print(f"  {'fail_frac':<12} {failed / attempted:12.4f} ratio {failed} of {attempted} items")
    for r in results:
        for f in r["failures"]:
            print(f"  failure  item {f['index']} {json.dumps(f['item'])}: {f['error']}")
    for p in problems:
        print(f"  problem  {p}")

    if args.trace:
        metrics = layer_metrics(traced, plain)
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:14.6g} {m['unit']}")
    print("run_record " + json.dumps(run_record(args, len(results), load_start, load_end)))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    """Per-layer metrics: counts of the first traced pass (all traced passes
    agree, which main checks) and medians of the times."""
    metrics = {}
    if not traced:
        return metrics
    first = traced[0]["trace"]
    for name, _, _ in TRACED:
        metrics[f"{name}.calls"] = {"value": first["calls"][name], "unit": "count"}
        for kind in ("busy_s", "self_s"):
            value = statistics.median(t["trace"][kind][name] for t in traced)
            metrics[f"{name}.{kind}"] = {"value": value, "unit": "s"}
    counts = first["counts"]
    metrics["cyclotomic.mul.coeff_ops"] = {
        "value": counts["cyclotomic.mul.coeff_ops"], "unit": "count"}
    inverts = first["calls"]["group_ring.try_invert"]
    metrics["group_ring.try_invert.invertible_frac"] = {
        "value": counts["group_ring.try_invert.invertible"] / inverts if inverts else 0.0,
        "unit": "ratio"}
    metrics["linalg.hnf.max_entry_bits"] = {
        "value": counts["linalg.hnf.max_entry_bits"], "unit": "bits"}
    metrics["gforms.witness.candidates_tried"] = {
        "value": counts["gforms.witness.candidates_tried"], "unit": "count"}
    overhead = (statistics.median(t["run_s"] for t in traced)
                / statistics.median(p["run_s"] for p in plain) - 1) if plain else 0.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
