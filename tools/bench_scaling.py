#!/usr/bin/env python3
"""Scaling trajectory of the solver layers on generated drift_N models.

For every N the ``drift_boundary_64`` recipe on an N-point grid
(``perfbench/drift.py``'s ``drift_doc``) is written to a work directory, then
measured in a fresh process, one N after another.  A measurement loads the
model file, audits it with the lowest feasible policy (at the audit's own
fill, ``DEFAULT_FILL``), refines the workspace of that policy to the
default target, then, at the refined fill, times the workspace build, the
table build, assemble (each call on an empty assemble cache), evaluation
(``evaluate_s``: the bordered solve and the invariant measure), the pass
that gives the improved policy and the optimality residual together, and
one policy-iteration step as ``run_pia`` takes it when its step cache
misses (``pia_step_s``: the kernel checks, the bordered solve and that
pass, on the policy's operators already assembled), one build of the
model's cumulative kernel rows, interior and boundary (``kernel_rows_s``:
what ``PdmpModel.kernel_rows`` takes once per model), and one
``prepare_simulation`` of that policy's own simulation tables, with the
model's rows already built (``prepare_s``).  Load, audit, refinement,
workspace build and tables make up the whole setup of a solve.  Every time is the median of as many calls as
fit in ``BUDGET_S`` seconds, and of at least ``MIN_SAMPLES``, so a
sub-millisecond column takes thousands of calls and a slow one three.  The
Monte Carlo columns run the same policy on simulation tables prepared once:
``mc_us_per_jump`` is the median over replications at horizon
``MC_HORIZON`` of a replication's time per jump, and ``mc_fixed_us`` the
time of a replication whose horizon ends before its first jump (the
per-replication cost of keying the stream, drawing the first uniforms and
building the summary; an unrecorded replication has no batch means), the
median over batches of
``MC_FIXED_CALLS``.  No line of drift_N is
stationary (a line that is one constant exit piece and never hits the
boundary): every drift_N line ends on the boundary, so the ``mc_*`` columns
time the general jump branch (interior jumps) and the boundary-pass branch
(a hazard level past the whole line, about half of drift_N's jumps), never
the simulator's short branch for stationary lines.  ``rss_after_load_mb`` is the process's peak RSS right
after the first load, ``peak_rss_mb`` at the end.  ``refine_peak_mb`` and
``prepare_peak_mb`` are the :mod:`tracemalloc` peaks, above their start, of
one refinement (from a new workspace at ``DEFAULT_FILL``) and of one
``prepare_simulation`` on the refined workspace (the policy's own tables;
the model's kernel rows are built before it), each run once outside the
timed calls; numpy reports its buffers to :mod:`tracemalloc`, so they repeat
exactly.  Every time is recorded to 3 significant figures.

Each measuring process runs the benchmark's host-speed probe
(``perfbench/speed.py``'s ``SpeedProbe``, loaded by path) throughout.
Beside every timed column ``X`` the row gives ``ref_X``: the same median in
the probe's reference seconds, that is the wall time less the probe's own
share, divided by the slowdown its calibration kernel showed at the same
moments; ``slowdown`` is that factor over the whole measurement.  A host
whose speed drifts by a quarter within a minute moves the wall times of two
runs of the same code as much; the reference times take most of that out.
The probe's samples also land inside some timed calls, so the wall times
read a few per cent higher than without it, and its module adds 2-4 MB to
the RSS columns.
Run from the root of a checkout:

    python tools/bench_scaling.py --label change --out BENCH_13.json

The rows go under ``--label`` in the output file, next to those of other
labels already there (say, the same script run on the parent commit with the
same ``--work`` directory), with the machine's cores, numpy and Python
versions, and the package's own import time in a fresh process
(``import_ms``) with whether that process wrote bytecode.  Model files
already in the work directory are reused.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import pdmp_avgctl as pa  # noqa: E402

SIZES = (64, 128, 256, 512, 1024)
MIN_SAMPLES = 3
BUDGET_S = 1.0
MC_HORIZON = 1e4
MC_FIXED_CALLS = 200
IMPORT_SAMPLES = 9


def _perfbench(name: str):
    """``perfbench/<name>.py`` of this checkout, imported as a module by path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def drift_doc(n: int) -> dict:
    """``perfbench/drift.py``'s model document for an ``n``-point grid."""
    return _perfbench("drift").drift_doc(n)


def _nbytes(obj) -> int:
    """Bytes of the arrays in the dataclass fields of ``obj``."""
    values = (getattr(obj, f.name) for f in dataclasses.fields(obj))
    return sum(value.nbytes for value in values if isinstance(value, np.ndarray))


def _table_bytes(ws) -> int:
    """Bytes of the arrays a workspace holds besides its model, the chain geometry it shares with the
    model's other workspaces, its mesh and its assembled operators."""
    total = 0
    for name, value in vars(ws).items():
        if name in ("model", "chain", "mesh", "geometry", "_assembled"):
            continue
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif dataclasses.is_dataclass(value):
            total += _nbytes(value)
    return total


def _rss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def _peak_mb(call) -> float:
    """The :mod:`tracemalloc` peak of one ``call()`` above its start, in MB.

    The speed probe's samples, which allocate arrays of their own, are held
    off until the call has returned.
    """
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return round(peak / 2**20, 3)


def _timed(call, before=None) -> list:
    """Wall intervals ``(t0, t1)`` of calls of ``call``, each after ``before()``.

    The calls go on until ``BUDGET_S`` seconds have passed since the first
    began, and number at least ``MIN_SAMPLES``.
    """
    spans = []
    begun = time.perf_counter()
    while len(spans) < MIN_SAMPLES or time.perf_counter() - begun < BUDGET_S:
        if before is not None:
            before()
        t0 = time.perf_counter()
        call()
        spans.append((t0, time.perf_counter()))
    return spans


def measure(path) -> dict:
    """One row of the scaling table for the model file at ``path``."""
    probe = _perfbench("speed").SpeedProbe()
    probe.start()
    begun = time.perf_counter()
    try:
        row, columns = _measure(path)
    finally:
        ended = time.perf_counter()
        probe.stop()
    for key, spans, factors in columns:
        row[key] = _significant(np.median([(t1 - t0) * f for (t0, t1), f in zip(spans, factors)]))
        row[f"ref_{key}"] = _significant(np.median([probe.seconds(t0, t1) * f for (t0, t1), f in zip(spans, factors)]))
    row["slowdown"] = round(probe.slowdown(begun, ended), 3)
    return row


def _significant(value: float) -> float:
    """``value`` to 3 significant figures."""
    return float(f"{value:.3g}")


def _measure(path) -> tuple[dict, list]:
    """The row's untimed columns, and per timed column ``(key, spans, factor per span to its unit)``."""
    columns = []

    def timed(key, call, before=None, factor=1.0):
        spans = _timed(call, before)
        columns.append((key, spans, [factor] * len(spans)))

    model = pa.load_model(path)
    rss_after_load = _rss_mb()
    timed("load_s", lambda: pa.load_model(path))
    policy = pa.FeedbackPolicy.lowest_feasible(model)
    timed("audit_s", lambda: pa.audit_assumptions(model, policy))
    fill = pa.refined_workspace(model, policy).fill
    refine_peak = _peak_mb(lambda: pa.refined_workspace(model, policy))
    timed("refine_s", lambda: pa.refined_workspace(model, policy))
    timed("workspace_build_s", lambda: pa.OperatorWorkspace(model, fill))
    spare = []

    def fresh_workspace():
        spare[:] = [pa.OperatorWorkspace(model, fill)]

    timed("tables_s", lambda: spare[0].segment_tables(), before=fresh_workspace)
    ws = spare[0]
    timed("assemble_s", lambda: ws.assemble(policy), before=ws._assembled.clear)
    result = pa.evaluate_policy(model, policy, workspace=ws)
    timed("evaluate_s", lambda: pa.evaluate_policy(model, policy, workspace=ws))
    timed("improve_certify_s", lambda: ws.improve_and_certify(result.rho, result.h, policy))
    timed("pia_step_s", lambda: pa.policy_iteration._step(model, ws, policy))
    kernels = (model.kernel_interior, model.kernel_boundary)
    timed("kernel_rows_s", lambda: [pa.simulation._cumulative_rows(kernel) for kernel in kernels])
    tables = pa.prepare_simulation(model, policy, workspace=ws)
    prepare_peak = _peak_mb(lambda: pa.prepare_simulation(model, policy, workspace=ws))
    timed("prepare_s", lambda: pa.prepare_simulation(model, policy, workspace=ws))
    jumps = []

    def replication():
        _, summary = pa.simulate(model, policy, 0, MC_HORIZON, 1, replication=len(jumps), record=False,
                                 tables=tables)
        jumps.append(summary.jumps)

    def short_replications():
        for r in range(MC_FIXED_CALLS):
            pa.simulate(model, policy, 0, 1e-9, 1, replication=r, record=False, tables=tables)

    spans = _timed(replication)
    columns.append(("mc_us_per_jump", spans, [1e6 / j for j in jumps]))
    timed("mc_fixed_us", short_replications, factor=1e6 / MC_FIXED_CALLS)
    mesh = ws.mesh
    return {
        "n": model.n_states,
        "refined_fill": fill,
        "mesh_nodes": int(mesh.times.size),
        "mesh_mb": round(sum(a.nbytes for a in (mesh.times, mesh.states, mesh.ilo, mesh.wlo, mesh.lam_nodes,
                                                mesh.f_nodes)) / 2**20, 3),
        "rss_after_load_mb": rss_after_load,
        "tables_mb": round(_table_bytes(ws) / 2**20, 3),
        "refine_peak_mb": refine_peak,
        "prepare_peak_mb": prepare_peak,
        "rho": result.rho,
        "peak_rss_mb": _rss_mb(),
    }, columns


def machine() -> dict:
    return {"cores": os.cpu_count(), "numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "processor": platform.processor() or None}


# one fresh interpreter: numpy first, then the package, timed alone
IMPORT_PROBE = """
import json, sys, time
import numpy
t0 = time.perf_counter()
import pdmp_avgctl
print(json.dumps({"ms": 1e3 * (time.perf_counter() - t0), "dont_write_bytecode": sys.flags.dont_write_bytecode}))
"""


def import_cost() -> dict:
    """``import_ms``: the median over ``IMPORT_SAMPLES`` fresh processes of ``import pdmp_avgctl`` after
    numpy, and whether those processes wrote no bytecode (``dont_write_bytecode``, set by
    ``PYTHONDONTWRITEBYTECODE``): without valid bytecode each import compiles the package's sources."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    runs = [json.loads(subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                                      check=True, env=env).stdout)
            for _ in range(IMPORT_SAMPLES)]
    return {"import_ms": _significant(float(np.median([r["ms"] for r in runs]))),
            "dont_write_bytecode": bool(runs[0]["dont_write_bytecode"])}


def _run(args: list) -> str:
    """The last output line of this script run with ``args`` in a fresh process, BLAS on one thread."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, *args], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="change", help="key of this run's rows in the output")
    parser.add_argument("--out", type=Path, help="JSON file the rows are merged into")
    parser.add_argument("--work", type=Path, default=ROOT / ".bench_scaling",
                        help="directory of the generated model files")
    parser.add_argument("--generate", nargs=2, metavar=("N", "PATH"), help=argparse.SUPPRESS)
    parser.add_argument("--measure", type=Path, metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.generate:
        n, path = int(args.generate[0]), Path(args.generate[1])
        path.write_text(json.dumps(drift_doc(n), indent=1) + "\n")
        return 0
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    args.work.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in SIZES:
        path = args.work / f"drift_{n}.json"
        if not path.exists():
            _run(["--generate", str(n), str(path)])
        rows.append(json.loads(_run(["--measure", str(path)])))
        print(json.dumps(rows[-1]), flush=True)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("runs", {})[args.label] = {"machine": dict(machine(), **import_cost()), "rows": rows}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
