"""The package names the benchmark in ``perfbench/`` wraps or calls."""
import ast
import importlib.util
import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phasesde import _kernel, cli, core, dynamics, integrator, oracle, stats

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "phasesde"
DEMOS = Path(__file__).resolve().parent.parent / "demos"


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


def test_noise_table_feeds_the_noise_factors_and_the_engine(monkeypatch):
    """B of ``dynamics`` and the numpy loop's kick read one noise rule."""
    calls = []

    def counted(name, rule):
        def wrapper(*args):
            calls.append((name, args[1]))
            return rule(*args)
        return wrapper

    for name, rule in list(dynamics.NOISE.items()):
        monkeypatch.setitem(dynamics.NOISE, name, counted(name, rule))
    params = core.SystemParams(0.0, 0.0, 1.0, 1.0,
                               core.CouplingSchedule.constant(1.0))
    point = core.PhasePoint(1.0, 1.0, 0.5, 0.5)
    dynamics.hybrid_noise_factor(point, params, 1.0)
    dynamics.positive_p_noise_factor(point, params, 1.0)
    assert calls == [("hybrid", 0), ("positive_p", 0)]

    config = core.EnsembleConfig(n_trajectories=2, dt=1e-3, t_final=3e-3,
                                 N_a0=1.0, N_b0=0.25, n_batches=1)
    plan = integrator.build_step_plan(config, params)
    for name in dynamics.NOISE:
        calls.clear()
        integrator._simulate_chunk(0, 2, core.MethodSpec.of(name), params,
                                   config, plan, native=False)
        assert calls == [(name, j) for j in range(plan.n_substeps)]


def test_probe_runs_what_runs_use(monkeypatch):
    """The load-time probe runs three chunks per method, numpy against
    numpy here: one as a default run does, with the method's noise and
    gauge drift off at the default blow-up threshold, and one with gauge
    drift on at a threshold that kills lanes."""
    rows, kicks, simulate = [], [], integrator._simulate_chunk
    signature = inspect.signature(simulate)

    def spy(*args, **kwargs):
        call = signature.bind(*args, **kwargs)
        call.apply_defaults()
        kicks.clear()
        out = simulate(*args, **kwargs)
        rows.append((call.arguments["method"].method,
                     call.arguments["config"].blowup_threshold,
                     call.arguments["record_gauge"], bool(kicks),
                     bool(np.isfinite(out["blowup_times"]).any())))
        return out

    def counted(rule):
        def wrapper(*args):
            kicks.append(args[1])
            return rule(*args)
        return wrapper

    for name, rule in list(dynamics.NOISE.items()):
        monkeypatch.setitem(dynamics.NOISE, name, counted(rule))
    monkeypatch.setattr(integrator, "_simulate_chunk", spy)
    assert integrator._probe_matches(False)
    default = core.EnsembleConfig.__dataclass_fields__[
        "blowup_threshold"].default
    for name in core.METHOD_NAMES:
        runs = [row[1:] for row in rows if row[0] == name]
        assert len(runs) == 6, name  # three rows, each on two engines
        noisy = name in dynamics.NOISE
        assert all(kicked == noisy for _, _, kicked, _ in runs), name
        assert any(row[:2] == (default, False) for row in runs), name
        assert any(gauge and lost for _, gauge, _, lost in runs), name


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_imports(monkeypatch, path):
    """Each demo imports as a module, without running ``main``, so a
    package name it imports must still exist."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def package_imports(name):
    """The package modules that ``phasesde/<name>.py`` imports, by name."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "phasesde":
                    continue
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("phasesde."))
    return {module for module in found if (PACKAGE / f"{module}.py").is_file()}


def test_oracle_stays_independent_of_the_engine():
    """The exact references read only ``core`` and ``representations``,
    and neither reaches the engine, so checking the engine against them
    checks it against something it does not share."""
    assert package_imports("oracle") <= {"core", "representations"}
    reached = {"oracle"}
    todo = ["oracle"]
    while todo:
        for name in package_imports(todo.pop()) - reached:
            reached.add(name)
            todo.append(name)
    assert not reached & {"integrator", "dynamics", "_kernel", "stats"}


@pytest.mark.parametrize("fma, avx512", [(True, False), (False, False),
                                         (True, True), (False, True)],
                         ids=["fma", "no_fma", "fma-avx512", "no_fma-avx512"])
def test_kernel_compiles_without_warnings(tmp_path, fma, avx512):
    """``_kernel.c`` compiles clean under -Wall -Wextra -Werror, with and
    without -mfma and -DPHASESDE_AVX512, whatever the CPU.  -Wno-psabi
    silences only gcc's notes that a vector argument is passed differently
    where AVX is off."""
    compiler = shutil.which(_kernel.COMPILER)
    if compiler is None:
        pytest.skip(f"no {_kernel.COMPILER} on PATH")
    flags = [f for f in _kernel._flags()
             if f not in ("-mfma", "-DPHASESDE_AVX512")]
    flags += ["-Wall", "-Wextra", "-Wno-psabi", "-Werror"]
    flags += ["-mfma"] if fma else []
    flags += ["-DPHASESDE_AVX512"] if avx512 else []
    proc = subprocess.run(
        [compiler, *flags, "-o", str(tmp_path / "kernel.so"),
         str(_kernel.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_kernel_keeps_no_writable_data(tmp_path):
    """Chunks run on threads at once, which is safe because ``_kernel.c``
    keeps no mutable state at file scope: its object defines no data,
    BSS, common or small-data symbol (``nm`` types D d B b C G g S s),
    only code, read-only tables and references to libm and libc."""
    compiler, nm = shutil.which(_kernel.COMPILER), shutil.which("nm")
    if compiler is None or nm is None:
        pytest.skip(f"needs {_kernel.COMPILER} and nm on PATH")
    obj = tmp_path / "kernel.o"
    subprocess.run([compiler, *_kernel._flags(), "-c", "-o", str(obj),
                    str(_kernel.SOURCE)], check=True, timeout=300)
    listing = subprocess.run([nm, "-P", str(obj)], check=True,
                             capture_output=True, text=True).stdout
    symbols = [line.split() for line in listing.splitlines()]
    assert any(kind == "T" for _name, kind, *_ in symbols)
    writable = [(name, kind) for name, kind, *_ in symbols
                if kind in "DdBbCGgSs"]
    assert writable == []
