"""The benchmark's traced targets exist, and a scan and a search reach each one.

``perfbench/tracer.py`` rebinds module globals, so a traced function that a
refactor folds, renames or captures at import (in a tuple, a default argument
or a closure) goes silent there.  These tests read its ``TARGETS`` and the
self-test's ``LAYERS_RUN`` without editing either, and find that in seconds.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mdiqkd import AnalysisInputs, cli, secure_key_rate

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    """``perfbench/<name>.py`` as a module; the directory is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
LAYERS_RUN = _load("selftest").LAYERS_RUN


@pytest.fixture
def traced_modules():
    # The tracer resolves each target in sys.modules, as after a CLI run.
    for module in {target[1] for target in tracer.TARGETS}:
        importlib.import_module(module)


def test_every_traced_target_resolves_to_a_callable(traced_modules):
    assert tracer.Tracer().absent == []


# Calls per traced layer of a scan at 10 and 40 km with configs/reference.cfg:
# one ensemble, and at each distance one observables table with six gains
# (v-x and x-v, v-y and y-v share one each) and four combination bounds.  The
# Chernoff calls are the two reports' chernoff_invocations.
_SCAN_CALLS = {
    "channel_sim.build_observables": 2,
    "keyrate_core.from_simulation": 2,
    "keyrate_core.secure_key_rate": 2,
    "stat_bounds.combo": 8,
    "channel_sim.pair_yield": 12,
    "source_model.coeff_bounds": 1,
    "source_model.check_decoy_conditions": 1,
}


def _chernoff_invocations(config: Path, distances: list[float]) -> int:
    """The summed ``chernoff_invocations`` of the reports a scan of ``config`` makes at ``distances``."""
    run = cli.RunConfig(**cli.parse_config_file(config))
    ensemble, channel = run.ensemble(), run.channel_params()
    reports = [secure_key_rate(AnalysisInputs.from_simulation(ensemble, channel.at_distance(d))) for d in distances]
    return sum(report.chernoff_invocations for report in reports)


@pytest.mark.parametrize(
    "workload, argv, extra",
    [
        ("sweep", ["scan", "--distances", "10,40"], ""),
        ("optimize", ["optimize", "--distances", "10"], "budget = 40\nrestarts = 2\n"),
    ],
)
def test_every_layer_of_a_workload_is_traced(traced_modules, tmp_path, capsys, workload, argv, extra):
    config = tmp_path / "run.cfg"
    config.write_text((REPO_ROOT / "configs" / "reference.cfg").read_text(encoding="utf-8") + extra, encoding="utf-8")
    traced = tracer.Tracer()
    traced.install()
    try:
        assert cli.main([*argv, "--config", str(config)]) == 0
    finally:
        traced.uninstall()
    summary = traced.summary(1)
    assert [layer for layer in LAYERS_RUN[workload] if not summary[layer]["calls"]] == []
    if workload == "sweep":
        # The bench's per-layer metrics compare across changes only while each layer runs as often per task.
        expected = {**_SCAN_CALLS, "stat_bounds.chernoff": _chernoff_invocations(config, [10.0, 40.0])}
        assert {layer: summary[layer]["calls"] for layer in expected} == expected
