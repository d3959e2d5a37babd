#!/usr/bin/env python3
"""nevlab benchmark: one closed-loop client running nevlab commands in-process.

    python3 perfbench/run.py --workload smt|growth|certify --seed N \\
        --seconds S --trace 0|1

Set-up, done three times and reported as the median ``setup_s``, times a
cold ``import nevlab.cli`` in a fresh interpreter, writes the workload's
seeded inputs under ``.perfbench/`` and runs one small warm-up command.
Then every op runs through ``nevlab.cli.main`` exactly as the command line
would, one after another, each starting cold: every functools cache in
nevlab is cleared first, since a command-line user pays that cost on every
invocation.  ``--seconds`` sizes the op list from nominal op costs, so the
list depends only on the seed and the run length and a faster program
finishes the same list sooner.  After the loop every report is checked and
the exact fields of each are hashed into a digest that the run record keeps,
so two commits can be compared for bit-identical exact output.

With ``--trace 0`` the op list runs under the speed probe (speed.py) and
the last line carries the end-to-end metrics, every time in reference
seconds: measured time rescaled to a core of fixed speed, because the
shared host's speed swings by up to 1.5x within seconds.  Raw wall and busy
times go to the table and the run record.  The per-class medians are
``class_a_p50_ref_s`` and ``class_b_p50_ref_s``, whose classes each workload
names (fixed/moving for smt and certify, kinked/smooth for growth).
``--trace 1`` runs the op list untraced and then traced (see tracing.py),
both without the probe, and reports the per-layer metrics with the tracing
overhead in wall seconds.
Run records go to ``.perfbench/record-<workload>-seed<N>-trace<T>.json``.
BLAS and OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Optional

import workloads
from speed import REF_PROBE_S, SpeedProbe
from tracing import MODULES, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

END_TO_END = (("wall_ref_s", "s"), ("class_a_p50_ref_s", "s"), ("class_b_p50_ref_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def prepare() -> None:
    """Pin thread pools and import nevlab from this checkout's sources only."""
    if not os.path.isfile(os.path.join(SRC, "nevlab", "cli.py")):
        raise SystemExit(f"perfbench: no nevlab sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    sys.set_int_max_str_digits(2_000_000)   # moving truncation levels run to 12k digits
    import nevlab
    if not os.path.abspath(nevlab.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: nevlab imported from {nevlab.__file__}, not {SRC}")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_share", "_per_zero")) or name.startswith("split."):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# running ops


@dataclass
class OpRun:
    seconds: float
    returncodes: list
    exception: Optional[BaseException]
    exc_text: str
    warnings: list
    stderr: str
    busy: Optional[float] = None            # seconds minus probe time, probed runs only
    ref_seconds: Optional[float] = None     # busy time at the probe's reference speed


def nevlab_caches() -> list:
    import nevlab
    mods = [sys.modules[f"nevlab.{m}"] for m in MODULES if f"nevlab.{m}" in sys.modules]
    found = {id(v): v for mod in [nevlab, *mods] for v in vars(mod).values()
             if callable(getattr(v, "cache_clear", None))}
    return list(found.values())


def run_op(op, caches, probe: Optional[SpeedProbe] = None) -> OpRun:
    from nevlab import cli
    for cache in caches:
        cache.cache_clear()
    err = io.StringIO()
    codes, exc, tb = [], None, ""
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        start = probe.mark() if probe is not None else 0
        t0 = perf_counter()
        try:
            for argv in op.argvs:
                # looked up on the module each time, so a tracer's wrapper is used
                codes.append(cli.main(list(argv)))
                if codes[-1]:
                    break
        except Exception as e:       # recorded as a failed op; the loop goes on
            exc, tb = e, traceback.format_exc()
        seconds = perf_counter() - t0
        end = probe.mark() if probe is not None else 0
    run = OpRun(seconds, codes, exc, tb, [str(w.message) for w in caught], err.getvalue())
    if probe is not None:
        run.busy, run.ref_seconds = probe.rescale(seconds, start, end)
    return run


def run_ops(ops, caches, tracer=None, probe=None):
    """Run the op list; with a probe active, each run gets its reference time."""
    if tracer is not None:
        tracer.install()
    try:
        with probe if probe is not None else contextlib.nullcontext():
            t0 = perf_counter()
            runs = [run_op(op, caches, probe) for op in ops]
            wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, runs


def classify(workload, op, run: OpRun):
    """(failure class or None, reason, digest of the exact output fields)."""
    from nevlab.nevanlinna import AdmissibilityError, DegeneracyError
    from nevlab.resultant import NotAdmissibleError
    from nevlab.zeros import ContourThroughZero
    if run.exception is not None:
        e = run.exception
        if isinstance(e, ContourThroughZero):
            kind = "numerical"
        elif isinstance(e, (DegeneracyError, AdmissibilityError, NotAdmissibleError)):
            kind = "obstruction"
        else:
            kind = "error"
        return kind, f"{type(e).__name__}: {e}", None
    if 2 in run.returncodes:
        return "input", run.stderr.strip(), None
    if any(run.returncodes):
        return "obstruction", run.stderr.strip(), None
    if run.warnings:
        return "numerical", "; ".join(run.warnings), None
    docs = []
    for path in op.outputs:
        with open(path) as fh:
            docs.append(json.load(fh))
    reason = workload.check(op, docs)
    if reason is not None:
        return "check", reason, None
    exact = json.dumps(workload.exact(op, docs), sort_keys=True)
    return None, None, hashlib.sha256(exact.encode()).hexdigest()


def judge(workload, ops, runs) -> list:
    rows = []
    for op, run in zip(ops, runs):
        kind, reason, digest = classify(workload, op, run)
        rows.append({"class": op.cls, "seconds": run.seconds, "busy": run.busy,
                     "ref_seconds": run.ref_seconds, "failure": kind,
                     "reason": reason, "digest": digest, "params": op.params,
                     "traceback": run.exc_text or None})
    return rows


# ---------------------------------------------------------------------------
# set-up


def time_cold_import() -> float:
    """Seconds from spawning a fresh interpreter to the end of its import of
    nevlab.cli, the end read by the child off the system-wide monotonic
    clock: timing the wait instead would add the up to 50 ms by which
    ``Popen.wait`` with a timeout polls."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = monotonic()
    child = subprocess.run(
        [sys.executable, "-c", "import nevlab.cli, time; print(repr(time.monotonic()))"],
        env=env, cwd=ROOT, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
    return float(child.stdout) - t0


def set_up(workload, seed: int, seconds: float, rundir: str, probe: SpeedProbe):
    """Import, generate the inputs and warm up, SETUP_REPEATS times.

    Each set-up is timed in wall seconds and, under the probe, in reference
    seconds.
    """
    times, ref_times, imports, ops = [], [], [], None
    for k in range(SETUP_REPEATS):
        with probe:
            start = probe.mark()
            imports.append(time_cold_import())
            t0 = perf_counter()
            indir, outdir = (os.path.join(rundir, f"setup{k}", d) for d in ("in", "out"))
            os.makedirs(indir)
            os.makedirs(outdir)
            ops = workload.make_ops(random.Random(seed), seconds, indir, outdir)
            warm = workloads.Op("warmup", (workload.warmup(indir),), (), {})
            run = run_op(warm, nevlab_caches())
            times.append(imports[-1] + perf_counter() - t0)
            ref_times.append(probe.rescale(times[-1], start, probe.mark())[1])
        if run.exception is not None or any(run.returncodes) or run.warnings:
            raise SystemExit(f"perfbench: warm-up failed: {run.exc_text or run.stderr}"
                             f"{run.warnings}")
    return ops, times, ref_times, imports


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import mpmath
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as e:   # numpy before 1.25 has no dict mode
        blas = f"unknown ({type(e).__name__})"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "machine": platform.machine(), "platform": platform.platform()}


def run_digest(rows) -> str:
    joined = "\n".join(str(r["digest"]) for r in rows)
    return hashlib.sha256(joined.encode()).hexdigest()


def print_table(title: str, lines) -> None:
    print(title)
    for name, value, unit, note in lines:
        print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    prepare()
    workload = workloads.WORKLOADS[args.workload]
    load_start = os.getloadavg()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    rundir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(WORK, exist_ok=True)
    probe = SpeedProbe()
    try:
        ops, setup_times, setup_ref, import_times = set_up(
            workload, args.seed, args.seconds, rundir, probe)
        caches = nevlab_caches()
        wall, runs = run_ops(ops, caches, probe=None if args.trace else probe)
        rows = judge(workload, ops, runs)
        tracer = None
        if args.trace:
            tracer = Tracer()
            traced_wall, traced_runs = run_ops(ops, caches, tracer)
            rows += judge(workload, ops, traced_runs)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    attempted = len(rows)
    failed = sum(1 for r in rows if r["failure"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    a, b = workload.classes
    first = rows[:len(ops)]

    def class_median(c, key):
        return statistics.median(r[key] for r in first if r["class"] == c)

    counts = {c: sum(1 for r in first if r["class"] == c) for c in (a, b)}
    lines = [("wall_s", wall, "s", f"{len(ops)} ops, wall clock"),
             *((f"{c}_p50_s", class_median(c, "seconds"), "s", f"{counts[c]} ops, wall clock")
               for c in (a, b)),
             ("failed_frac", failed / attempted, "ratio", f"{failed}/{attempted} ops"),
             ("setup_wall_s", statistics.median(setup_times), "s",
              f"median of {SETUP_REPEATS} set-ups, wall clock"),
             ("peak_rss_mb", peak_rss_mb, "MB", "")]
    e2e = None
    if not args.trace:
        e2e = {"wall_ref_s": math.fsum(r["ref_seconds"] for r in first),
               "class_a_p50_ref_s": class_median(a, "ref_seconds"),
               "class_b_p50_ref_s": class_median(b, "ref_seconds"),
               "setup_s": statistics.median(setup_ref), "peak_rss_mb": peak_rss_mb}
        lines += [("wall_ref_s", e2e["wall_ref_s"], "s", "reference seconds"),
                  (f"{a}_p50_ref_s", e2e["class_a_p50_ref_s"], "s", "class_a_p50_ref_s"),
                  (f"{b}_p50_ref_s", e2e["class_b_p50_ref_s"], "s", "class_b_p50_ref_s"),
                  ("setup_s", e2e["setup_s"], "s", "median, reference seconds"),
                  ("probe_ms", 1e3 * statistics.median(probe.samples), "ms",
                   f"median of {len(probe.samples)} probes; reference "
                   f"{1e3 * REF_PROBE_S:g} ms")]
    print_table(f"nevlab {args.workload}  seed {args.seed}  {len(ops)} ops, closed loop, "
                f"1 client, in-process", lines)
    for row in rows:
        if row["failure"]:
            print(f"  FAILED {row['class']} ({row['failure']}): {row['reason']}")

    if tracer is not None:
        metrics = tracer.metrics(wall, traced_wall)
        print_table("per-layer (traced pass)",
                    [(k, v, layer_unit(k), "") for k, v in metrics.items()])
        out = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        metrics = e2e
        out = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
              "classes": [a, b], "wall_s": wall, "setup_s": setup_times,
              "setup_ref_s": setup_ref, "cold_import_s": import_times,
              "probe": {"ref_probe_s": REF_PROBE_S, "interval_s": probe.interval,
                        "samples": probe.samples},
              "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures_by_class": Counter(r["failure"] for r in rows if r["failure"]),
              "digest": run_digest(first),
              "spans": tracer.table() if tracer is not None else None, "ops": rows}
    record_path = os.path.join(WORK, f"record-{tag}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"exact-output digest {record['digest'][:16]}  "
          f"record {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
