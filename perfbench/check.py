#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the repository root.

  python3 perfbench/check.py smoke            # short run of every workload, two seeds
  python3 perfbench/check.py spread WORKLOAD [--runs 10] [--first-seed 1]
  python3 perfbench/check.py report [--seed 1]  # every end-to-end metric, all workloads

`smoke` asserts that every metric BENCHMARK.json names is emitted (both
with --trace 0 and --trace 1) and that every output check passes.
`spread` runs one workload on consecutive seeds and prints, per
end-to-end metric, the median and the quartile spread as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's
bound. `report` prints one table of every end-to-end metric with its
unit for every workload.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, seconds, trace):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    print(f"  {workload} seed {seed} trace {trace}: exit {out.returncode} "
          f"in {time.monotonic() - start:.1f} s", file=sys.stderr, flush=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(res, names, label):
    problems = []
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        problems.append(f"checks failed ({res['failed']} of {res['attempted']})")
    got = set(res["metrics"])
    missing = sorted(set(names) - got)
    extra = sorted(got - set(names))
    if missing:
        problems.append(f"missing metrics {missing}")
    if extra:
        problems.append(f"unlisted metrics {extra}")
    for p in problems:
        print(f"FAIL {label}: {p}")
    return not problems


def smoke(_args):
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    layers = [m["name"] for m in SPEC["per_layer"]]
    ok = True
    for w in SPEC["workloads"]:
        for seed in (1, 2):
            for trace, names in ((0, e2e), (1, layers)):
                label = f"{w['name']} seed {seed} trace {trace}"
                ok &= check_result(run(w["name"], seed, 2, trace), names, label)
                print(f"ok   {label}")
    if not ok:
        raise SystemExit(1)
    print("smoke: every workload emits every named metric and passes its checks")


def spread(args):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        res = run(args.workload, seed, SPEC["run_seconds"], 0)
        if not res["correct"]:
            print(f"seed {seed}: checks failed")
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    worst = 0.0
    for k, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        share = (q3 - q1) / med if med else float("inf")
        if k != "setup_s":
            worst = max(worst, share / bounds[k])
        print(f"{k:16s} median {med:14.4f}  spread {share:7.4f}  bound {bounds[k]:.2f}  "
              + " ".join(f"{v:.4g}" for v in vs))
    print(f"{args.workload}: worst spread / bound = {worst:.3f}")


def report(args):
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    names = [w["name"] for w in SPEC["workloads"]]
    rows = {w: run(w, args.seed, SPEC["run_seconds"], 0)["metrics"] for w in names}
    print(f"{'metric':16s} {'unit':6s} " + " ".join(f"{w:>16s}" for w in names))
    for k, unit in units.items():
        print(f"{k:16s} {unit:6s} " + " ".join(f"{rows[w][k]['value']:16.4f}" for w in names))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    sub.add_parser("smoke")
    s = sub.add_parser("spread")
    s.add_argument("workload")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--first-seed", type=int, default=1)
    r = sub.add_parser("report")
    r.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    {"smoke": smoke, "spread": spread, "report": report}[args.cmd](args)


if __name__ == "__main__":
    main()
