#!/usr/bin/env python3
"""Write the CLI artifacts of the bundled models, to compare two checkouts byte for byte.

    python tools/bundled_artifacts.py OUT [MODEL ...]

For each bundled model (or each MODEL named) the commands below run in this
process through ``pdmp_avgctl.cli.main``, each with its own output directory
``OUT/<model>/<step>/``: validate, audit, evaluate, solve, simulate (the
Monte Carlo verdict of the solved policy at the solve's rho, and one
replication with its trajectory CSV) and report.  ``OUT/<model>/console.txt``
keeps each command, its exit code, its stdout and stderr and the warnings it
raised, with the output and model directories written as ``OUT`` and
``MODELS``.  The library is imported from the checkout this script sits in,
so running it in two checkouts and comparing the trees with ``diff -r`` shows
every artifact, message and exit code that differs.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pdmp_avgctl as pa
from pdmp_avgctl import cli

SEED = 7
HORIZON = 500.0
REPS = 4
TRAJECTORY_HORIZON = 50.0


def _run(args: list, masks: dict) -> str:
    """One ``cli.main`` call, as the console lines it leaves: command, exit code, output and warnings."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
    text = "$ " + " ".join(str(a) for a in args) + f"\nexit {code}\n" + out.getvalue() + err.getvalue()
    text += "".join(f"warning: {w.category.__name__}: {w.message}\n" for w in caught)
    for path, label in masks.items():
        text = text.replace(path, label)
    return text


def write_artifacts(out: Path, name: str) -> None:
    """Every command's artifacts and console lines for the bundled model ``name`` under ``out / name``."""
    model = pa.bundled_model_path(name)
    root = out / name
    root.mkdir(parents=True, exist_ok=True)
    masks = {str(out): "OUT", str(model.parent): "MODELS"}
    solved = root / "solve"
    console = [_run(["validate", "--model", model], masks)]
    for step in ("audit", "evaluate", "solve"):
        console.append(_run([step, "--model", model, "--out", root / step], masks))
    rho = json.loads((solved / "evaluation.json").read_text())["rho"]
    policy = ["--policy", solved / "policy.json"]
    console.append(_run(["simulate", "--model", model, *policy, "--rho", repr(rho), "--horizon", HORIZON,
                         "--reps", REPS, "--seed", SEED, "--out", root / "simulate"], masks))
    console.append(_run(["simulate", "--model", model, *policy, "--horizon", TRAJECTORY_HORIZON,
                         "--seed", SEED, "--trajectory-csv", "--out", root / "trajectory"], masks))
    console.append(_run(["report", "--trace", solved / "trace.json", "--out", root / "report"], masks))
    (root / "console.txt").write_text("".join(console))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python tools/bundled_artifacts.py OUT [MODEL ...]", file=sys.stderr)
        return 2
    out = Path(args[0]).resolve()
    for name in args[1:] or pa.bundled_model_names():
        write_artifacts(out, name)
        print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
