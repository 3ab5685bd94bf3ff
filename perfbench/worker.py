"""One workload run of the certify pipeline, in its own process.

    python3 perfbench/worker.py SPEC.json [--spans SPANS.json]

The spec (written by ``run.py``) lists the model files, the start policies
and the Monte Carlo settings.  Per model the worker runs the pipeline in the
order ``cmd_solve`` and then ``cmd_simulate --rho`` use it: load, validate,
audit, refined workspace, then ``run_pia`` from every start on that shared
workspace, then ``mc_validate`` on every distinct final policy.  It checks
each solve and verdict and prints one JSON line with stage times, counts and
failures; with ``--spans`` it traces the library and writes the spans there.
A :class:`speed.SpeedProbe` samples the CPU's speed throughout, and every
time is given both in wall seconds and in the probe's reference seconds.
"""

from __future__ import annotations

import os
import time

BEGUN = time.perf_counter()  # the run's wall clock starts before the heavy imports

# must precede the first numpy import, in this process and in the library's
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402

RHO_RISE_TOL = 1e-7
OPT_RESIDUAL_TOL = 1e-7
RHO_REF_TOL = 1e-6


def import_library():
    """The package under ``src/`` of this checkout, never an installed copy."""
    import pdmp_avgctl as pa

    if Path(pa.__file__).resolve().parent != ROOT / "src" / "pdmp_avgctl":
        raise ImportError(f"pdmp_avgctl imported from {pa.__file__}, not from {ROOT / 'src'}")
    return pa


def solve_problem(out, rho_ref: float) -> str | None:
    """Why a ``run_pia`` outcome fails the benchmark's checks, or None."""
    if isinstance(out, Exception):
        return f"raised {type(out).__name__}: {out}"
    result, _, trace = out
    if trace.status != "converged":
        return f"status {trace.status}"
    rises = np.diff(trace.rhos)
    if rises.size and rises.max() > RHO_RISE_TOL:
        return f"rho rose by {rises.max():.3e}"
    if trace.records[-1].optimality_residual > OPT_RESIDUAL_TOL:
        return f"optimality residual {trace.records[-1].optimality_residual:.3e}"
    if abs(result.rho - rho_ref) > RHO_REF_TOL:
        return f"rho {result.rho!r} misses reference {rho_ref!r}"
    return None


def run(spec: dict, pa, tracer: Tracer) -> dict:
    """Run the spec's pipeline; its stages as wall intervals, counts and failures."""
    clock = time.perf_counter

    def policy(d: dict):
        return pa.FeedbackPolicy(np.asarray(d["interior"], dtype=np.int64),
                                 np.asarray(d["boundary"], dtype=np.int64))

    mc = spec["mc"]
    stages = {"setup": [], "solve": [], "mc": []}  # wall (start, end) of each step
    attempted = 0
    failures = []  # {"op", "model", "index", "problem", "raised"}
    for m in spec["models"]:
        tracer.run_id = f"{m['name']}:setup"
        t0 = clock()
        model = pa.load_model(m["path"])
        violations = pa.validate_model(model)
        u_ws = policy(m["workspace_policy"])
        pa.audit_assumptions(model, u_ws)
        ws = pa.refined_workspace(model, u_ws)
        stages["setup"].append((t0, clock()))

        finals = {}
        for k, start in enumerate(m["starts"]):
            tracer.run_id = f"{m['name']}:solve:{k}"
            t0 = clock()
            try:
                out = pa.run_pia(model, policy(start), workspace=ws)
            except Exception as exc:  # a raising solve is a failed operation
                out = exc
            stages["solve"].append((t0, clock()))
            attempted += 1
            problem = ("model fails validation" if violations
                       else solve_problem(out, m["rho_ref"]))
            if problem:
                failures.append({"op": "solve", "model": m["name"], "index": k,
                                 "problem": problem, "raised": isinstance(out, Exception)})
            else:
                finals.setdefault(out[1].key(), (out[1], out[0].rho))

        for k, (final, rho) in enumerate(finals.values()):
            tracer.run_id = f"{m['name']}:mc:{k}"
            raised = False
            t0 = clock()
            try:
                verdict = pa.mc_validate(model, final, rho, 0, mc["horizon"], mc["replications"],
                                         mc["seed"], workspace=ws)
                problem = None if verdict.passed else (
                    f"verdict failed: mean {verdict.pooled_mean!r} se {verdict.pooled_se!r} rho {rho!r}")
            except Exception as exc:  # a raising verdict is a failed operation
                raised, problem = True, f"raised {type(exc).__name__}: {exc}"
            stages["mc"].append((t0, clock()))
            attempted += 1
            if problem:
                failures.append({"op": "mc", "model": m["name"], "index": k,
                                 "problem": problem, "raised": raised})
        del ws  # free this mesh before the next model's is built

    return {
        "stages": stages,
        "jumps": tracer.counts["simulation.jumps"],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("spec", type=Path)
    ap.add_argument("--spans", type=Path, default=None,
                    help="trace the library and write the spans to this file")
    args = ap.parse_args(argv)
    spec = json.loads(args.spec.read_text())
    pa = import_library()
    tracer = Tracer(spans=args.spans is not None)
    tracer.install(pa)
    probe = SpeedProbe()
    probe.start()
    out = run(spec, pa, tracer)
    ended = time.perf_counter()
    probe.stop()
    out["steps"] = {stage: [[t1 - t0, probe.seconds(t0, t1)] for t0, t1 in steps]
                    for stage, steps in out.pop("stages").items()}  # [wall, reference] s
    for stage, steps in out["steps"].items():
        out[f"{stage}_wall_s"] = sum(wall for wall, _ in steps)
        out[f"{stage}_s"] = sum(ref for _, ref in steps)
    out["total_s"] = probe.seconds(BEGUN, ended)
    out["total_wall_s"] = ended - BEGUN
    out["slowdown"] = probe.slowdown(BEGUN, ended)
    if args.spans is not None:
        tracer.write(args.spans)
        out["layers"] = per_layer_metrics(tracer, probe.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
