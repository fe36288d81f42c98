"""Benchmark of the hankelmoments library.

Replays one workload's requests (see ``workloads.py``) from outside the
package: one process, one client, closed loop, requests one after another.
A pass runs every request of the workload once; passes repeat until the
next one would end after ``--seconds``.  Outputs of every pass are checked
after the pass, outside the timed interval.

    python3 perfbench/run.py --workload exact-rational --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are end to end:

* ``wall_s``       median time of a pass, first request to last result,
                   rescaled to a fixed machine speed (``speed.py``; the raw
                   pass times are in the header line);
* ``setup_s``      median, over fresh processes, of the time from process
                   start to the first request (imports, input generation,
                   reference table), rescaled to the same fixed speed;
* ``peak_rss_mib`` ``ru_maxrss`` of this process;
* ``pass_ratio``   checked items that passed over items attempted.

``failed`` counts every failed item; ``correct`` is false when an item fails
that is not in ``checks.KNOWN_DEFECTS``.

With ``--trace 1`` a warm-up pass is followed by cycles of an untraced pass
and a traced one; the metrics are the per-layer ones of
``tracer.layer_metrics``, one per request kind, and the tracing overhead.
Spans are written to ``.perfbench-traces/`` at the root of the checkout.

The library is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import speed
from checks import item, unexpected_failures

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("spectrum-ladder", "exact-rational", "f64-sequences")
SETUP_SAMPLES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and one set-up sample, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    """Import hankelmoments from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "hankelmoments", "__init__.py")):
        print(f"perfbench: no library source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import hankelmoments

    if not os.path.abspath(hankelmoments.__file__).startswith(SRC + os.sep):
        print(f"perfbench: hankelmoments imported from {hankelmoments.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def setup(args, tmp):
    """Imports a CLI user pays, seeded inputs, reference table; (requests, digest)."""
    import jsonschema  # noqa: F401  (imported by the CLI; named to make the cost explicit)
    import mpmath  # noqa: F401
    import numpy  # noqa: F401
    import scipy  # noqa: F401

    import checks
    import workloads

    reference = checks.load_reference()
    config_dir = os.path.join(tmp, "configs")
    os.mkdir(config_dir)
    requests, inputs = workloads.build(args.workload, args.seed, args.smoke, config_dir, reference)
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    for name in sorted(os.listdir(config_dir)):
        with open(os.path.join(config_dir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read())
    return requests, digest.hexdigest()


def measure_setup(args, samples):
    """Median time from spawning a fresh benchmark process to its first request.

    Each sample is rescaled to the reference speed by the speed ratio the
    child measured over its own set-up.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=170)
        if proc.returncode != 0 or len(line) != 2 or line[0] != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {err.strip()}")
        times.append(elapsed * float(line[1]))
    return statistics.median(times)


def run_pass(requests, outdir, tracer=None):
    """Run every request once, in order; [(output, error)] per request."""
    results = []
    for rid, req in enumerate(requests):
        span = None
        if tracer is not None:
            tracer.request = rid
            span = tracer.open("req")
        try:
            results.append((req.run(outdir), None))
        except Exception as exc:  # a request that raises is a failed item, not a crash
            results.append((None, "".join(traceback.format_exception_only(exc)).strip()))
        finally:
            if span is not None:
                tracer.close(span)
    return results


def timed_pass(requests, outdir, tracer=None):
    """(raw seconds, seconds at reference speed, results) of one pass."""
    with speed.SpeedSampler(tracer.exclude if tracer else None) as sampler:
        results = run_pass(requests, outdir, tracer)
    return (*sampler.times(), results)


def check_pass(requests, results, outdir):
    items = []
    for req, (out, err) in zip(requests, results):
        if err is not None:
            items.append(item(f"{req.name}/raised", False, err))
            continue
        try:
            items += req.check(out, outdir)
        except Exception as exc:  # malformed output: the item fails, the run goes on
            items.append(item(f"{req.name}/check", False, f"checker raised {exc!r}"))
    return items


def machine():
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "jsonschema": importlib.metadata.version("jsonschema"),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def unit(metric):
    if metric.endswith("_s") or metric == "serialize.s":
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


def main(argv=None):
    args = parse_args(argv)
    if args.setup_only:
        with speed.SpeedSampler() as sampler:
            import_library()
            with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
                setup(args, tmp)
        raw, norm = sampler.times()
        print(f"ready {norm / raw!r}", flush=True)
        return 0
    import_library()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        requests, digest = setup(args, tmp)
        import tracer as tracer_mod
        import workloads

        names = sorted({r.name for r in requests})
        if names != sorted(workloads.REQUEST_NAMES[args.workload]):
            raise RuntimeError(f"request names {names} differ from REQUEST_NAMES")
        setup_s = None if args.trace else measure_setup(args, 1 if args.smoke else SETUP_SAMPLES)

        tracer = tracer_mod.Tracer() if args.trace else None
        walls, raw_walls, traced_walls, items = [], [], [], []
        start = time.perf_counter()
        if tracer is not None:
            # one warm-up pass first, so that the overhead compares two warm passes
            items += check_pass(requests, run_pass(requests, os.path.join(tmp, "warmup")),
                                os.path.join(tmp, "warmup"))
        while True:
            cycle_start = time.perf_counter()
            outdir = os.path.join(tmp, f"pass{len(walls)}")
            raw, wall, results = timed_pass(requests, outdir)
            raw_walls.append(raw)
            walls.append(wall)
            items += check_pass(requests, results, outdir)
            if tracer is not None:
                uninstall = tracer_mod.install(tracer)
                try:
                    _, wall, results = timed_pass(requests, outdir + "-traced", tracer)
                finally:
                    uninstall()
                traced_walls.append(wall)
                items += check_pass(requests, results, outdir + "-traced")
            shutil.rmtree(outdir, ignore_errors=True)
            shutil.rmtree(outdir + "-traced", ignore_errors=True)
            now = time.perf_counter()
            if now - start + (now - cycle_start) > args.seconds:
                break

    failed_items = [(name, detail) for name, ok, detail in items if not ok]
    attempted, failed = len(items), len(failed_items)
    unexpected = unexpected_failures(items)
    if tracer is None:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (attempted - failed) / attempted,
        }
    else:
        request_names = {rid: f"req.{args.workload}.{r.name}_s" for rid, r in enumerate(requests)}
        values = {f"req.{w}.{name}_s": 0.0
                  for w, req_names in workloads.REQUEST_NAMES.items() for name in req_names}
        values.update(tracer_mod.layer_metrics(tracer, request_names, len(traced_walls)))
        traced, untraced = statistics.median(traced_walls), statistics.median(walls)
        values.update({"trace.wall_s": traced, "trace.untraced_wall_s": untraced,
                       "trace.overhead_s": traced - untraced,
                       "trace.overhead_ratio": (traced - untraced) / untraced})
        trace_dir = os.path.join(ROOT, ".perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        with open(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": values,
                       "requests": [r.name for r in requests], **tracer.to_json()}, fh)
    metrics = {k: {"value": v, "unit": "MiB" if k == "peak_rss_mib" else unit(k)}
               for k, v in values.items()}

    header = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "trace": args.trace, "seconds": args.seconds, "inputs_sha256": digest,
              "passes": len(walls), "pass_walls_s": walls, "raw_pass_walls_s": raw_walls,
              "traced_pass_walls_s": traced_walls,
              "fail_ratio": failed / attempted, "machine": machine(),
              "failed_items": sorted(set(failed_items)),
              "unexpected_failed_items": unexpected}
    print(json.dumps(header, sort_keys=True))
    for k, m in metrics.items():
        print(f"{k:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
