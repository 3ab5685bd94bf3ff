"""Certify-pipeline benchmark of pdmp-avgctl.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs (model files and start
policies) are generated from ``--seed`` into ``.perfbench_work/``; then
workload runs of ``worker.py`` repeat, one fresh process at a time with
BLAS/OpenMP pinned to one thread, for about ``--seconds`` seconds.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (medians over the workload runs), the end-to-end
metrics with ``--trace 0`` and the per-layer ones with ``--trace 1``.

Workloads (why each exists):

* ``drift128_certify`` -- the ``drift_boundary_64`` recipe at N=128 solved
  from ``lowest_feasible``, then 32 Monte Carlo replications at horizon 2e3.
  Mostly mesh geometry: audit, refinement to fill 64 (528,512 nodes).
  Larger N does not fit the run budget (N=256) or memory (N=1024) with
  today's meshes.
* ``bundled_pia_starts`` -- the five bundled models, ten seeded random
  starts each on one workspace per model (the sweep reuse pattern), then 32
  replications at horizon 250 of each distinct final policy.  Mostly
  per-policy work on a fixed mesh: improve, optimality residual, assemble.
* ``bundled_mc`` -- the same five models solved once each, then 32
  replications at horizon 2.5e3.  Mostly simulation.  It uses the same models
  and layers as ``bundled_pia_starts`` in opposite proportions, so moving
  time between solver and simulator shows on one of the two.

The Monte Carlo horizons also set each workload run to 10-21 s (see the
round rule in ``main``); a stage much shorter than a second is too unsteady
to compare.

Times are reference seconds (``speed.py``): each stage's wall time, less the
speed probe's own share, divided by the slowdown a fixed calibration kernel
showed in the same process at the same moments.  The shared virtual CPUs of
a benchmark host change speed by up to 1.5x for tens of seconds, which moved
wall times between runs of the same code by a quarter; the probe takes that
out.  ``total_s`` runs from the worker's first line to its last solve or
verdict; the record file keeps the wall times beside them.

Solve references: the uniformization/RVI oracle of ``tests/oracles.py`` for
the two ``ctmdp_*`` models, the boundary charge r0 for ``renewal_cycle``,
and the rho recorded in ``perfbench/reference.json`` for the others.  Monte
Carlo verdict misses count as failed operations; ``correct`` is false when a
solve fails its checks, an operation raises or a worker process fails.  A
correct simulator misses the 3-SE band of ``mc_validate`` at a small rate,
and the verdict is a function of the seed, so compare failures only at equal
seeds.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_ENV  # importing worker sets the thread variables before numpy loads
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]  # the library and its oracles
WORK = ROOT / ".perfbench_work"
REQUIRED = ("src/pdmp_avgctl/__init__.py", "tools/build_bundled_models.py", "tests/oracles.py")
RUN_LIMIT_S = 170.0  # every run of the benchmark ends within this
CPU_SWITCH_S = 0.25

GENERATED = {"drift_128": 128}  # model name -> grid size of perfbench/drift.py
BUNDLED = ("ctmdp_2state", "ctmdp_3state", "decay_flow_16", "drift_boundary_64", "renewal_cycle")
WORKLOADS = {
    # models, random starts per model (0: lowest_feasible only), Monte Carlo
    "drift128_certify": {"models": ("drift_128",), "random_starts": 0,
                         "mc": {"replications": 32, "horizon": 2000.0}},
    "bundled_pia_starts": {"models": BUNDLED, "random_starts": 10,
                           "mc": {"replications": 32, "horizon": 250.0}},
    "bundled_mc": {"models": BUNDLED, "random_starts": 0,
                   "mc": {"replications": 32, "horizon": 2500.0}},
}
END_TO_END = {"setup_s": "s", "solve_s": "s", "mc_jumps_per_s": "jumps/s",
              "total_s": "s", "peak_rss_mb": "MB"}


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "threads": THREAD_ENV}


def model_path(name: str) -> Path:
    if name in GENERATED:
        return WORK / "inputs" / f"{name}.json"
    return ROOT / "src" / "pdmp_avgctl" / "models" / f"{name}.json"


def rho_reference(name: str, doc: dict) -> float:
    """The rho every solve of this model must reach (see the module docstring)."""
    if name.startswith("ctmdp_"):
        import pdmp_avgctl as pa
        from oracles import model_arrays, uniformization_rvi

        return float(uniformization_rvi(*model_arrays(pa.model_from_dict(doc, name=name)))[0])
    if name == "renewal_cycle":
        return float(doc["costs"]["boundary"][0][0])
    return float(json.loads((HERE / "reference.json").read_text())["rho"][name])


def make_spec(workload: str, seed: int) -> Path:
    """Generate the workload's inputs from the seed; return the spec file."""
    import numpy as np

    from drift import write_drift_model

    cfg = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    models = []
    for index, name in enumerate(cfg["models"]):
        path = model_path(name)
        if name in GENERATED:
            write_drift_model(GENERATED[name], path)
        doc = json.loads(path.read_text())
        feasible = doc["actions"]["feasible"]
        boundary = doc["actions"]["boundary_feasible"]
        lowest = {"interior": [int(a[0]) for a in feasible], "boundary": [int(a[0]) for a in boundary]}
        rng = np.random.default_rng([seed, index])
        starts = [{"interior": [int(rng.choice(a)) for a in feasible],
                   "boundary": [int(rng.choice(a)) for a in boundary]}
                  for _ in range(cfg["random_starts"])] or [lowest]
        models.append({"name": name, "path": str(path), "workspace_policy": lowest,
                       "starts": starts, "rho_ref": rho_reference(name, doc)})
    spec = {"workload": workload, "seed": seed, "models": models,
            "mc": dict(cfg["mc"], seed=seed)}
    out = WORK / f"spec-{workload}-{seed}.json"
    out.write_text(json.dumps(spec))
    return out


def run_worker(spec: Path, spans: Path | None, timeout: float) -> tuple[dict | None, float, str]:
    """One workload run in a fresh process: (result or None, wall seconds, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **THREAD_ENV)
    cpus = sorted(os.sched_getaffinity(0))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as proc:
        # Move the worker to the next CPU every CPU_SWITCH_S.  On a 2-vCPU
        # Xeon VM each vCPU's speed changed on its own by up to 1.5x for tens
        # of seconds; a worker spread over both sees their mean, and its run
        # times varied about a third less.
        for k in itertools.count():
            try:
                os.sched_setaffinity(proc.pid, {cpus[k % len(cpus)]})
            except OSError:  # the worker has exited, or placement is not allowed here
                pass
            try:
                out, err = proc.communicate(timeout=CPU_SWITCH_S)
                break
            except subprocess.TimeoutExpired:
                if time.perf_counter() - t0 > timeout:
                    proc.kill()
                    proc.communicate()
                    return None, time.perf_counter() - t0, f"worker exceeded {timeout:.0f} s"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, wall, f"worker exit {proc.returncode}: {err.strip()[-2000:]}"
    return json.loads(out.strip().splitlines()[-1]), wall, ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a pdmp-avgctl checkout ({ROOT}); missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    begun = time.perf_counter()
    facts = machine_facts()
    spec = make_spec(args.workload, args.seed)
    (WORK / "spans").mkdir(exist_ok=True)

    # Another round starts while less than half of --seconds has passed, and
    # an untraced run has at least two rounds.  The workloads are sized so
    # that a round takes 10-21 s at --seconds 42, hence two rounds, whose
    # median is their mean.  A traced round pairs an untraced and a traced
    # process; their difference is the tracing overhead.
    plain, traced, errors = [], [], []
    t_start = time.perf_counter()
    rounds = 0
    while True:
        for with_spans in ([False, True] if args.trace else [False]):
            spans = WORK / "spans" / f"{args.workload}-{args.seed}-{rounds}.json" if with_spans else None
            remaining = RUN_LIMIT_S - (time.perf_counter() - begun)
            result, wall, err = run_worker(spec, spans, max(remaining, 1.0))
            if result is None:
                errors.append(err)
                break
            result["process_wall_s"] = wall
            result["mc_jumps_per_s"] = result["jumps"] / result["mc_s"] if result["mc_s"] > 0 else 0.0
            (traced if with_spans else plain).append(result)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if errors or (rounds >= (1 if args.trace else 2) and elapsed >= args.seconds / 2):
            break

    runs = plain + traced
    if not plain or (args.trace and not traced):
        print(f"error: no complete workload run: {'; '.join(errors)}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    correct = not errors and not any(f["op"] == "solve" or f["raised"] for f in failures)

    med = lambda key, rs: statistics.median(r[key] for r in rs)  # noqa: E731
    if args.trace:
        overhead = med("total_s", traced) - med("total_s", plain)
        metrics = {k: {"value": overhead if k == "trace.overhead_s"
                       else statistics.median(r["layers"][k] for r in traced), "unit": unit}
                   for k, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {k: {"value": med(k, plain), "unit": u} for k, u in END_TO_END.items()}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "runs": runs, "errors": errors,
              "failures": failures, "metrics": metrics}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# workload {args.workload} seed {args.seed}: {len(plain)} untraced"
          f"{f' + {len(traced)} traced' if args.trace else ''} runs; machine {json.dumps(facts)}")
    for f in failures:
        print(f"# failed: {f['model']} {f['op']} {f['index']}: {f['problem']}")
    for e in errors:
        print(f"# error: {e}")
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'operations attempted':40s} {attempted:>16d}\n{'operations failed':40s} {failed:>16d}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
