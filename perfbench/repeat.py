"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --trace 1
    python3 perfbench/repeat.py --seeds 1-10 --write perfbench/baseline.json

Runs perfbench/run.py once per workload and seed (seeds in the outer loop,
so slow drift on the machine reaches every workload alike) with the
``run_seconds`` of BENCHMARK.json, and prints for every metric of every
workload its median, quartiles, the quartile spread as a share of the median,
and the sample count. Exits 1 if any run is not correct. With ``--write`` the
summary and the run record of the first run are saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import items as item_lists
from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    values = {w: {} for w in item_lists.WORKLOADS}
    units = {}
    first_record = None
    all_correct = True
    for seed in args.seeds:
        for w in item_lists.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT, check=True)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            record = json.loads(next(x for x in lines if x.startswith("run_record "))[11:])
            first_record = first_record or record
            all_correct &= result["correct"]
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            shown = "  ".join(f"{k} {m['value']:.4g} {m['unit']}"
                              for k, m in result["metrics"].items()
                              if args.trace == 0)
            print(f"seed {seed:>3} {w:<15} correct {result['correct']}  "
                  f"fail_frac {result['failed'] / result['attempted']:.4g} ratio "
                  f"({result['failed']}/{result['attempted']})  {shown}", flush=True)

    summary = {}
    for w in item_lists.WORKLOADS:
        summary[w] = {}
        for name, vals in values[w].items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                                "spread": spread, "n": len(vals)}
            if args.trace == 0 or name.endswith(("busy_s", "overhead_frac")):
                print(f"{w:<15} {name:<40} median {med:.5g} {units[name]:<5} "
                      f"q1 {q1:.5g}  q3 {q3:.5g}  spread {spread:.3f}  n {len(vals)}")
    if args.write:
        args.write.write_text(json.dumps({
            "run_seconds": seconds,
            "seeds": args.seeds,
            "trace": args.trace,
            "record": first_record,
            "workloads": summary,
        }, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
