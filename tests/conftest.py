from __future__ import annotations

import json
import tracemalloc
import warnings

import pytest
from hypothesis.errors import HypothesisSideeffectWarning
from hypothesis.internal.conjecture import providers

import pdmp_avgctl as pa
import pdmp_avgctl.cli  # noqa: F401  (every module of the package, for the pool below)

# Hypothesis draws some values from a pool of the constants (numbers and
# strings) in the local modules imported so far, and grows the pool
# whenever sys.modules grows, so a derandomized test's examples would depend
# on what ran before it.  The pool is fixed here, to the constants of every
# module of the package (the pool a full run had before any tool module was
# loaded).  Reading them now, before any test, is what Hypothesis warns of
# as slow.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", HypothesisSideeffectWarning)
    _CONSTANTS = providers._get_local_constants()
providers._get_local_constants = lambda: _CONSTANTS

BUNDLED = ["ctmdp_2state", "ctmdp_3state", "renewal_cycle", "drift_boundary_64", "decay_flow_16"]
TRIVIAL_FLOW_BUNDLED = ["ctmdp_2state", "ctmdp_3state"]


def traced(call):
    """``call()``, with the bytes it leaves allocated and the peak it reached above its start.

    numpy reports its buffers to :mod:`tracemalloc`, so both are
    deterministic.
    """
    tracemalloc.start()
    try:
        out = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


@pytest.fixture(scope="session")
def models() -> dict:
    return {name: pa.load_model(pa.bundled_model_path(name)) for name in BUNDLED}


@pytest.fixture(scope="session")
def workspaces(models) -> dict:
    out = {}
    for name, model in models.items():
        u0 = pa.FeedbackPolicy.lowest_feasible(model)
        out[name] = pa.refined_workspace(model, u0)
    return out


@pytest.fixture(scope="session")
def solved(models, workspaces) -> dict:
    """Converged PIA output per bundled model (shared across test modules)."""
    out = {}
    for name, model in models.items():
        u0 = pa.FeedbackPolicy.lowest_feasible(model)
        result, policy, trace = pa.run_pia(model, u0, workspace=workspaces[name])
        out[name] = (result, policy, trace)
    return out


@pytest.fixture
def write_model(tmp_path):
    def _write(doc: dict, name: str = "model"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return path

    return _write
