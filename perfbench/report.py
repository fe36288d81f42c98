"""Run every workload untraced and traced, and print every metric with its unit.

    python3 perfbench/report.py --seed 1 [--seconds 30] [--json summary.json]

Each run is its own ``run.py`` process, one after another.  The table lists
the end-to-end metrics, the fail ratio with its item count, the per-layer
metrics, and each workload's largest self time, by metric and by layer.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import checks
from run import HERE, WORKLOADS


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} (trace {trace}) failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--json", help="also write every header and result to this file")
    args = p.parse_args(argv)

    summary = {}
    for w in WORKLOADS:
        plain_header, plain = run(w, args.seed, args.seconds, 0)
        traced_header, traced = run(w, args.seed, args.seconds, 1)
        summary[w] = {"header": plain_header, "result": plain,
                      "traced_header": traced_header, "traced_result": traced}
        print(f"== {w} (seed {args.seed}, {plain_header['passes']} passes)")
        for k, m in plain["metrics"].items():
            print(f"  {k:<46} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_ratio':<46} {plain_header['fail_ratio']:>14.6g} ratio "
              f"({plain['failed']} of {plain['attempted']} items)")
        for name, detail in plain_header["failed_items"]:
            known = " (known defect)" if name in checks.KNOWN_DEFECTS else ""
            print(f"    failed{known}: {name}: {detail}")
        layer = traced["metrics"]
        for k, m in layer.items():
            if not k.startswith("req.") or k.startswith(f"req.{w}.") or k == "req.self_s":
                print(f"  {k:<46} {m['value']:>14.6g} {m['unit']}")
        self_times = {k: m["value"] for k, m in layer.items()
                      if m["unit"] == "s" and not k.startswith(("req.", "trace."))}
        layers = {}
        for k, v in self_times.items():
            layers[k.split(".")[0]] = layers.get(k.split(".")[0], 0.0) + v
        print(f"  largest self time: {max(self_times, key=self_times.get)}; "
              f"largest layer: {max(layers, key=layers.get)}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
