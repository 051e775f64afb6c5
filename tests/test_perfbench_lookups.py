"""The benchmark in perfbench/ reaches into qsearch by name; keep those names alive.

perfbench/tracing.py wraps each layer under every (module, attribute) its
callers look it up by, and its water-fill counter reads the arguments and the
return value of ``qsearch.optimizer.waterfill``.  perfbench/workloads.py
imports its reference solvers by name.  Both files are loaded by path, so the
benchmark itself needs no change for these checks to run; perfbench/run.py is
left out because it pins thread variables on import.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import qsearch
import qsearch.cli
from qsearch import sample_random_prior

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


def test_workloads_imports_resolve():
    assert set(load("workloads").WORKLOADS) == {"sweep", "certify", "plan"}


def test_every_traced_layer_resolves(tracing):
    for name, targets in tracing.LAYERS.items():
        for module, attr in targets:
            assert callable(getattr(importlib.import_module(module), attr, None)), (name, module, attr)
    assert callable(qsearch.kernel_backend)


def test_waterfill_counter_reads_the_call_shape(tracing, tmp_path):
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"weights": sample_random_prior(64, 1).weights.tolist()}))
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        code = qsearch.cli.main(
            ["optimize", "--prior", str(prior), "--t", "2", "--out", str(tmp_path / "plan.json")]
        )
    assert code == 0
    assert tracer.counts["optimizer.path.waterfill"] == 1
    assert tracer.counts["kernels.waterfill.outer_iters"] > 0
    assert tracer.counts["kernels.waterfill.unconverged"] == 0
