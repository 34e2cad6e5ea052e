"""The package names the benchmark in ``perfbench/`` wraps or calls."""
import importlib.util
import sys
from pathlib import Path

import pytest

from phasesde import cli, core, dynamics, integrator, oracle, stats

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_run(monkeypatch):
    """``perfbench/run.py`` as a module; it imports its siblings by name.

    No bytecode is written, so the benchmark's directory stays as it is.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_targets_exist(perfbench_run):
    targets = perfbench_run.pipeline_targets(cli, integrator, dynamics, stats,
                                             oracle)
    assert targets
    for module, attr, _span, _units in targets:
        assert callable(getattr(module, attr, None)), (module.__name__, attr)
    for module, attr in ((cli, "_params_from_json"),
                         (cli, "_ensemble_from_json"),
                         (cli, "load_config_file"),
                         (cli, "resolve_config"),
                         (cli, "run_config"),
                         (integrator, "build_step_plan"),
                         (core, "validate_config")):
        assert callable(getattr(module, attr, None)), (module.__name__, attr)


@pytest.mark.parametrize("method", core.METHOD_NAMES)
def test_frequency_table_sees_wrapped_functions(monkeypatch, method):
    """The benchmark's frequency spans count the engine's table lookups."""
    calls = []

    def counted(original):
        def wrapper(*args):
            calls.append(original.__name__)
            return original(*args)
        return wrapper

    for attr in ("hybrid_frequencies", "positive_p_frequencies",
                 "wigner_frequencies"):
        monkeypatch.setattr(dynamics, attr, counted(getattr(dynamics, attr)))
    params = core.SystemParams(0.0, 0.0, 1.0, 1.0,
                               core.CouplingSchedule.constant(1.0))
    dynamics.FREQUENCIES[method](1.0, 1.0, 0.5, 0.5, params, 1.0)
    assert len(calls) == 1
