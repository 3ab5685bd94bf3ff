"""Command-line surface: validate, audit, evaluate, solve, simulate, report.

Exit codes partition failure modes: 0 success, 1 validation violations,
2 usage or I/O problems, 3 non-convergence, 4 strict-audit failure,
5 simulation abort.  Every artifact embeds the model file's content hash and
the tool version, so re-running a command with identical inputs reproduces
byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_STRICT_AUDIT = 4
EXIT_SIM_ABORT = 5


@dataclass
class RunConfig:
    """One command's settings, and the one place each default is stated."""

    command: str
    model_path: Path | None = None
    tol: float = 1e-8
    tol_rho: float = 1e-8
    max_iter: int = 200
    horizon: float = 1e4
    replications: int = 32
    seed: int | None = None
    x0: int = 0
    out_dir: Path = Path(".")
    strict_audit: bool = False
    policy_path: Path | None = None
    rho: float | None = None
    trace_path: Path | None = None
    trajectory_csv: bool = False

    def check(self) -> None:
        problems = [f"{flag} must be positive" for flag, value in
                    (("--tol", self.tol), ("--tol-rho", self.tol_rho)) if not value > 0]
        if self.command == "solve" and self.max_iter < 1:
            problems.append("--max-iter must be at least 1")
        if self.command == "simulate":
            if not 0 < self.horizon < math.inf:
                problems.append("--horizon must be positive and finite")
            if self.replications < 2:
                problems.append("--reps must be at least 2 (the standard error needs two replications)")
            if self.seed is None:
                problems.append("--seed is required for simulation")
            elif not 0 <= self.seed < 2**64:
                problems.append("--seed must be in [0, 2**64) (a Philox key word)")
            if self.rho is not None and not math.isfinite(self.rho):
                problems.append("--rho must be finite")
        if problems:
            print("error: " + "; ".join(problems), file=sys.stderr)
            raise SystemExit(EXIT_USAGE)


def _artifact_header(model) -> dict:
    from . import __version__

    return {"model_sha256": model.source_hash, "tool_version": __version__}


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _write_csv(path: Path, header: dict, fieldnames: list[str], rows: list[dict]) -> None:
    """A CSV file whose first line is the comment ``# model_sha256=... tool_version=...`` of ``header``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# model_sha256={header['model_sha256']} tool_version={header['tool_version']}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _load_model_or_exit(path: Path):
    from .model import ModelFormatError, load_model

    try:
        return load_model(path)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None


def _action_indices(value):
    """A JSON list of integer action indices as an int64 array; raises ValueError otherwise."""
    import numpy as np

    if not isinstance(value, list) or not all(type(a) is int for a in value):
        raise ValueError(value)
    return np.array(value, dtype=np.int64)


def _load_policy(model, path: Path):
    from .model import FeedbackPolicy

    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read policy file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    try:
        interior = _action_indices(doc["interior"])
        boundary = _action_indices(doc.get("boundary", []))
    except (KeyError, TypeError, ValueError, OverflowError):
        print(f"error: policy file {path} must be a JSON object with an \"interior\" list and an "
              "optional \"boundary\" list of integer action indices", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    if doc.get("model_sha256", model.source_hash) != model.source_hash:
        print(f"error: policy file {path} was written for a different model "
              f"(model_sha256 {doc['model_sha256']}, loaded model {model.source_hash})",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    policy = FeedbackPolicy(interior=interior, boundary=boundary)
    problems = policy.feasibility_problems(model)
    if problems:
        print("error: " + "; ".join(problems), file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return policy


def _model_and_policy(config: RunConfig):
    """The model of ``--model``, which must pass validation, and the policy of
    ``--policy`` or else the lowest feasible one; exits when either is refused."""
    from .model import FeedbackPolicy, validate_model

    model = _load_model_or_exit(config.model_path)
    if validate_model(model):
        print("error: model fails validation", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    policy = (_load_policy(model, config.policy_path) if config.policy_path
              else FeedbackPolicy.lowest_feasible(model))
    return model, policy


def cmd_validate(config: RunConfig) -> int:
    from .model import validate_model

    model = _load_model_or_exit(config.model_path)
    violations = validate_model(model)
    for v in violations:
        print(f"violation [{v.invariant}] at {v.location}: {v.message} (magnitude {v.magnitude:g})")
    if violations:
        return EXIT_VALIDATION
    print(f"ok: {model.name} ({model.n_states} states, {model.n_actions} actions, "
          f"{model.n_boundary} boundary points)")
    return EXIT_OK


def cmd_audit(config: RunConfig) -> int:
    from .model import audit_assumptions

    model, policy = _model_and_policy(config)
    report = audit_assumptions(model, policy)
    for item in report.items:
        slack = "" if not item.worst_slack == item.worst_slack else f" slack={item.worst_slack:.3g}"
        print(f"{item.name:8s} {item.status:14s}{slack} @ {item.worst_location}  {item.note}")
    payload = dict(_artifact_header(model), **report.to_dict())
    _write_json(config.out_dir / "audit.json", payload)
    print(f"audit {'passed' if report.passed else 'FAILED'}; report written to "
          f"{config.out_dir / 'audit.json'}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def cmd_evaluate(config: RunConfig) -> int:
    from .evaluation import EvaluationError, evaluate_policy

    model, policy = _model_and_policy(config)
    try:
        result = evaluate_policy(model, policy, config.tol)
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    _write_json(config.out_dir / "evaluation.json", _evaluation_payload(model, policy, result))
    print(f"rho = {result.rho:.12g}  D = {result.D:.6g}  residual = {result.residual:.3g}")
    return EXIT_OK


def _policy_lists(policy) -> dict:
    return {"interior": [int(a) for a in policy.interior],
            "boundary": [int(a) for a in policy.boundary]}


def _policy_payload(model, policy) -> dict:
    return dict(_artifact_header(model), schema="pdmp-policy/1", **_policy_lists(policy))


def _evaluation_payload(model, policy, result) -> dict:
    """evaluation.json: the result plus the policy it evaluates, which simulate checks."""
    return dict(_artifact_header(model), policy=_policy_lists(policy), **result.to_dict())


def cmd_solve(config: RunConfig) -> int:
    from .evaluation import EvaluationError
    from .model import audit_assumptions
    from .operators import OperatorWorkspace, refined_workspace
    from .policy_iteration import run_pia

    model, u0 = _model_and_policy(config)
    # the audit's workspace is where refinement starts, so it is built once
    start = OperatorWorkspace(model)
    report = audit_assumptions(model, u0, workspace=start)
    if not report.passed:
        failing = [it.name for it in report.items if it.status == "fail"]
        if config.strict_audit:
            print(f"error: strict audit failed ({', '.join(failing)})", file=sys.stderr)
            return EXIT_STRICT_AUDIT
        print(f"warning: audit failed ({', '.join(failing)}); continuing", file=sys.stderr)

    try:
        result, policy, trace = run_pia(model, u0, config.tol_rho, config.max_iter,
                                        workspace=refined_workspace(model, u0, start=start))
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED

    _write_json(config.out_dir / "evaluation.json", _evaluation_payload(model, policy, result))
    _write_json(config.out_dir / "policy.json", _policy_payload(model, policy))
    _write_json(config.out_dir / "trace.json", dict(_artifact_header(model), **trace.to_dict()))
    _write_csv(config.out_dir / "trace.csv", _artifact_header(model),
               ["n", "rho", "poisson_residual", "changed_states", "optimality_residual",
                "delta_h", "h_gnorm"],
               trace.to_rows())
    print(f"status={trace.status} rho={result.rho:.12g} iterations={len(trace.records)} "
          f"artifacts in {config.out_dir}")
    return EXIT_OK if trace.status == "converged" else EXIT_NONCONVERGED


def cmd_simulate(config: RunConfig) -> int:
    from .operators import refined_workspace
    from .simulation import SimulationExplosionError, mc_validate, prepare_simulation, simulate

    model, policy = _model_and_policy(config)

    rho = config.rho
    result_path = config.out_dir / "evaluation.json"
    if rho is None and result_path.exists():
        try:
            evaluation = json.loads(result_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {result_path}: {exc}; pass --rho", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(evaluation, dict) or evaluation.get("model_sha256") != model.source_hash:
            print(f"error: {result_path} was written for a different model; pass --rho",
                  file=sys.stderr)
            return EXIT_USAGE
        if evaluation.get("policy") != _policy_lists(policy):
            print(f"error: {result_path} was written for a different policy; pass --rho or --policy",
                  file=sys.stderr)
            return EXIT_USAGE
        rho = evaluation.get("rho")
        if rho is not None and (type(rho) not in (int, float) or not math.isfinite(rho)):
            print(f"error: {result_path} holds no finite rho; pass --rho", file=sys.stderr)
            return EXIT_USAGE

    if rho is not None and config.trajectory_csv:
        source = "--rho" if config.rho is not None else str(result_path)
        print(f"error: --trajectory-csv records one plain run, but rho from {source} makes this a Monte Carlo "
              f"verdict run, which records no trajectory; drop --trajectory-csv, or run without --rho into an "
              f"--out holding no evaluation.json", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= config.x0 < model.n_states:
        print(f"error: --x0 must be in [0, {model.n_states})", file=sys.stderr)
        return EXIT_USAGE
    # the refined mesh that evaluate and solve price the policy on
    ws = refined_workspace(model, policy)
    try:
        if rho is not None:
            verdict = mc_validate(model, policy, float(rho), config.x0, config.horizon,
                                  config.replications, config.seed, workspace=ws)
            _write_json(config.out_dir / "mc_summary.json",
                        dict(_artifact_header(model), **verdict.to_dict()))
            print(f"verdict={'pass' if verdict.passed else 'fail'} "
                  f"mean={verdict.pooled_mean:.6g} se={verdict.pooled_se:.3g} rho={rho:.6g}")
            exit_code = EXIT_OK if verdict.passed else EXIT_VALIDATION
        else:
            record, summary = simulate(model, policy, config.x0, config.horizon, config.seed,
                                       tables=prepare_simulation(model, policy, workspace=ws))
            _write_json(config.out_dir / "sim_summary.json",
                        dict(_artifact_header(model), **summary.to_dict()))
            print(f"average={summary.average:.6g} se={summary.se:.3g} jumps={summary.jumps} "
                  f"boundary_hits={summary.boundary_hits}")
            if config.trajectory_csv:
                rows = [{"t": t, "event_type": e, "state": s, "cost_so_far": c}
                        for t, e, s, c in record.to_rows()]
                _write_csv(config.out_dir / "trajectory.csv", _artifact_header(model),
                           ["t", "event_type", "state", "cost_so_far"], rows)
            exit_code = EXIT_OK
    except SimulationExplosionError as exc:
        print(f"error: {exc} ({exc.stats})", file=sys.stderr)
        return EXIT_SIM_ABORT
    return exit_code


def cmd_report(config: RunConfig) -> int:
    trace_path = config.trace_path or (config.out_dir / "trace.json")
    try:
        doc = json.loads(Path(trace_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {trace_path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = doc.get("iterations") if isinstance(doc, dict) else None
    fields = ("n", "rho", "poisson_residual", "optimality_residual")
    if not isinstance(rows, list) or not all(isinstance(r, dict) and all(f in r for f in fields) for r in rows):
        print(f"error: trace {trace_path} must be a JSON object with an \"iterations\" list of rows "
              f"carrying {', '.join(fields)}", file=sys.stderr)
        return EXIT_USAGE
    header = {key: doc.get(key, "") for key in ("model_sha256", "tool_version")}
    _write_csv(config.out_dir / "rho_vs_n.csv", header, ["n", "rho"],
               [{"n": r["n"], "rho": r["rho"]} for r in rows])
    _write_csv(config.out_dir / "residuals_vs_n.csv", header,
               ["n", "poisson_residual", "optimality_residual"],
               [{"n": r["n"], "poisson_residual": r["poisson_residual"],
                 "optimality_residual": r["optimality_residual"]} for r in rows])
    print(f"plot-ready CSVs written to {config.out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The parser; each option's ``dest`` is its :class:`RunConfig` field.

    An option not given is left out of the parsed namespace, so the
    :class:`RunConfig` default applies.
    """
    parser = argparse.ArgumentParser(
        prog="pdmp-avgctl",
        description="Average-cost control of piecewise-deterministic Markov processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, model_required=True):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        if model_required:
            p.add_argument("--model", dest="model_path", metavar="MODEL", required=True, type=Path,
                           help="model JSON file")
        p.add_argument("--out", dest="out_dir", metavar="OUT", type=Path, help="artifact output directory")
        return p

    def policy(p, help=None):
        p.add_argument("--policy", dest="policy_path", metavar="POLICY", type=Path, help=help)

    command("validate", "check model invariants")
    policy(command("audit", "audit growth/ergodicity assumptions"))
    p = command("evaluate", "evaluate a fixed policy")
    policy(p)
    p.add_argument("--tol", type=float)
    p = command("solve", "run policy iteration")
    policy(p, "initial policy (default: lowest feasible action per state)")
    p.add_argument("--tol-rho", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--strict-audit", action="store_true")
    p = command("simulate", "simulate a policy / validate rho by Monte Carlo")
    policy(p)
    p.add_argument("--rho", type=float, help="reference average cost; enables the Monte Carlo verdict")
    p.add_argument("--horizon", type=float)
    p.add_argument("--reps", dest="replications", metavar="REPS", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--x0", type=int, help="start state index")
    p.add_argument("--trajectory-csv", action="store_true")
    p = command("report", "emit plot-ready CSVs from a solve trace", model_required=False)
    p.add_argument("--trace", dest="trace_path", metavar="TRACE", type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    config.check()
    handler = {
        "validate": cmd_validate,
        "audit": cmd_audit,
        "evaluate": cmd_evaluate,
        "solve": cmd_solve,
        "simulate": cmd_simulate,
        "report": cmd_report,
    }[config.command]
    with warnings.catch_warnings():
        # a library warning (a refinement short of its target) as one line, as the commands print theirs
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        return handler(config)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
