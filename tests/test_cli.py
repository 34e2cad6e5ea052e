"""Config resolution, preset execution, output files, and the entry point."""
import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import phasesde
from phasesde import ConfigError, __version__
from phasesde.cli import (
    PRESET_NAMES,
    load_preset,
    main,
    oracle_table,
    resolve_config,
    run_config,
    run_preset,
)
from phasesde.oracle import OracleParams, exact_correlation, exact_series


def read_csv(path):
    raw = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    return raw


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------


def test_presets_load_and_resolve_canonically():
    for name in PRESET_NAMES:
        resolved = resolve_config(load_preset(name))
        assert isinstance(resolved["method"], list)
        for entry in resolved["method"]:
            assert set(entry) == {"name", "n_trajectories"}
        # canonical form is a fixed point of resolution
        assert resolve_config(resolved) == resolved


def test_resolved_config_round_trips_through_json():
    resolved = resolve_config(load_preset("fig6"))
    assert resolved["params"]["coupling"][-1]["t_end"] is None
    again = resolve_config(json.loads(json.dumps(resolved)))
    assert again == resolved


def test_resolve_applies_overrides():
    resolved = resolve_config(load_preset("fig2"), {
        "seed": 7, "trajectories": 50, "dt": 2e-4,
        "out": "/tmp/elsewhere", "observables": "X_a,N_a",
    })
    assert resolved["ensemble"]["master_seed"] == 7
    assert resolved["method"][0]["n_trajectories"] == 50
    assert resolved["ensemble"]["dt"] == 2e-4
    assert resolved["output"]["path"] == "/tmp/elsewhere/fig2"
    assert resolved["observables"] == ["X_a", "N_a"]


@pytest.mark.parametrize("mangle,fragment", [
    (lambda c: c.pop("observables"), "missing"),
    (lambda c: c["ensemble"].pop("n_trajectories"), "n_trajectories"),
    (lambda c: c.__setitem__("observables", ["X_q"]), "unknown observables"),
    (lambda c: c["output"].__setitem__("format", "xml"), "unknown output format"),
    (lambda c: c.__setitem__("method", ["hybrid", "hybrid"]), "duplicate"),
])
def test_resolve_rejects_malformed_configs(mangle, fragment):
    raw = load_preset("fig2")
    mangle(raw)
    with pytest.raises(ConfigError) as err:
        resolve_config(raw)
    assert fragment in str(err.value)


# ---------------------------------------------------------------------------
# execution equivalence and output files
# ---------------------------------------------------------------------------


def test_config_file_run_matches_preset_run(tmp_path):
    cfg_path = tmp_path / "fig2_copy.json"
    cfg_path.write_text(json.dumps(load_preset("fig2")))
    from_file = run_config(str(cfg_path), {"trajectories": 50,
                                           "out": str(tmp_path / "a")})
    from_preset = run_preset("fig2", {"trajectories": 50,
                                      "out": str(tmp_path / "b")})
    a = (tmp_path / "a" / "fig2_hybrid_X_a.csv").read_bytes()
    b = (tmp_path / "b" / "fig2_hybrid_X_a.csv").read_bytes()
    assert a == b
    series = from_file["series"][("hybrid", "X_a")]
    other = from_preset["series"][("hybrid", "X_a")]
    np.testing.assert_array_equal(series.mean, other.mean)


def test_csv_columns_round_trip_floats_exactly(tmp_path):
    outcome = run_preset("fig2", {"trajectories": 50, "out": str(tmp_path)})
    series = outcome["series"][("hybrid", "X_a")]
    table = read_csv(tmp_path / "fig2_hybrid_X_a.csv")
    assert table.dtype.names == ("t", "mean", "stderr", "exact",
                                 "live_fraction")
    np.testing.assert_array_equal(table["t"], series.times)
    np.testing.assert_array_equal(table["mean"], series.mean)
    np.testing.assert_array_equal(table["exact"], series.exact)


def test_same_seed_same_bytes_different_seed_different(tmp_path):
    kw = {"trajectories": 30}
    run_preset("fig1", {**kw, "out": str(tmp_path / "r1")})
    run_preset("fig1", {**kw, "out": str(tmp_path / "r2")})
    run_preset("fig1", {**kw, "seed": 999, "out": str(tmp_path / "r3")})
    base = (tmp_path / "r1" / "fig1_positive_p_X_a.csv").read_bytes()
    assert (tmp_path / "r2" / "fig1_positive_p_X_a.csv").read_bytes() == base
    assert (tmp_path / "r3" / "fig1_positive_p_X_a.csv").read_bytes() != base


def test_method_override_selects_one_method(tmp_path):
    outcome = run_preset("fig4", {"trajectories": 40, "method": "wigner",
                                  "out": str(tmp_path)})
    assert set(outcome["series"]) == {("wigner", "X_a")}
    names = [p.rsplit("/", 1)[-1] for p in outcome["outputs"]]
    assert sorted(names) == ["fig4_wigner.meta.json", "fig4_wigner_X_a.csv"]


def test_breakdown_is_annotated_in_the_sidecar(tmp_path, capsys):
    raw = {
        "method": "positive_p",
        "params": {"omega_a": 0.0, "omega_b": 0.0, "chi_a": 1.0,
                   "chi_b": 1.0, "coupling": [{"t_end": None, "g": 1.0}]},
        "ensemble": {"n_trajectories": 100, "n_batches": 10, "dt": 1e-4,
                     "t_final": 0.3, "sample_interval": 50,
                     "master_seed": 77, "N_a0": 100.0, "N_b0": 0.01},
        "observables": ["X_a"],
        "output": {"path": str(tmp_path / "burst"), "format": "csv"},
    }
    cfg_path = tmp_path / "burst.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(cfg_path)]) == 0
    err = capsys.readouterr().err
    assert "sampling breaks down" in err
    meta = json.loads((tmp_path / "burst_positive_p.meta.json").read_text())
    assert meta["version"] == __version__
    t_break = meta["breakdown_times"]["X_a"]
    assert t_break is not None and t_break <= 0.1


def test_json_format_carries_metadata(tmp_path):
    run_preset("fig1", {"trajectories": 30, "format": "json",
                        "out": str(tmp_path)})
    doc = json.loads((tmp_path / "fig1_positive_p_X_a.json").read_text())
    assert doc["metadata"]["version"] == __version__
    assert doc["metadata"]["config"]["output"]["format"] == "json"
    cols = doc["columns"]
    lengths = {len(cols[k]) for k in ("t", "mean", "stderr", "live_fraction")}
    assert len(lengths) == 1
    assert len(cols["exact"]) == len(cols["t"])


# ---------------------------------------------------------------------------
# oracle subcommand
# ---------------------------------------------------------------------------


def test_oracle_command_writes_exact_values(tmp_path, capsys):
    assert main(["oracle", "--preset", "fig1", "--out", str(tmp_path),
                 "--times", "0:1:0.25"]) == 0
    table = read_csv(tmp_path / "fig1_exact.csv")
    np.testing.assert_allclose(table["t"], [0.0, 0.25, 0.5, 0.75, 1.0],
                               atol=1e-12)
    raw = load_preset("fig1")
    p = OracleParams(
        omega_a=raw["params"]["omega_a"], omega_b=raw["params"]["omega_b"],
        chi_a=raw["params"]["chi_a"], chi_b=raw["params"]["chi_b"],
        g=raw["params"]["coupling"][0]["g"],
        N_a0=raw["ensemble"]["N_a0"], N_b0=raw["ensemble"]["N_b0"])
    np.testing.assert_allclose(table["X_a"],
                               exact_series("X_a", table["t"], p), atol=1e-14)


@pytest.mark.parametrize("times", ["abc", "0:1:x", "0,nan", "0:inf:1",
                                   "0:1e18:1", "0:1e308:1e-308"])
def test_oracle_command_rejects_malformed_times(tmp_path, capsys, times):
    assert main(["oracle", "--preset", "fig1", "--out", str(tmp_path),
                 "--times", times]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_oracle_table_correlation_vanishes_without_coupling():
    p = OracleParams(0.0, 0.0, 1.0, 1.0, 0.0, 4.0, 0.25)
    table = oracle_table(p, np.linspace(0.0, 1.0, 9), ["C_Na_Yb"])
    np.testing.assert_allclose(table["C_Na_Yb"], 0.0, atol=1e-12)


def test_zero_occupation_correlation_is_nan_without_numpy_warnings(tmp_path):
    """At N_a0 = 0 the variance product is zero: the exact C_Na_Yb is NaN.

    Neither the closed form nor a run of that config warns from numpy;
    the run's own warning about dropped batch estimates stays.
    """
    p = OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(exact_correlation(np.array([0.0, 0.1]), p)).all()
    raw = load_preset("fig6")
    raw["ensemble"]["N_a0"] = 0
    path = tmp_path / "n_a0_zero.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "C_Na_Yb: dropped", UserWarning)
        out = run_config(str(path), {"trajectories": 20, "dt": 1e-3,
                                     "out": str(tmp_path / "out")})
    for method in ("hybrid", "wigner"):
        assert np.isnan(out["series"][(method, "C_Na_Yb")].exact).all()


def test_oracle_table_rejects_unsupported_observables():
    p = OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, 4.0, 0.25)
    with pytest.raises(ConfigError):
        oracle_table(p, [0.0], ["no_such"])


# ---------------------------------------------------------------------------
# entry point and exit codes
# ---------------------------------------------------------------------------


def test_main_reports_config_errors(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2
    assert "not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err

    unbalanced = tmp_path / "unbalanced.json"
    raw = load_preset("fig1")
    raw["ensemble"]["n_trajectories"] = 33  # not divisible by 10 batches
    unbalanced.write_text(json.dumps(raw))
    assert main(["run", "--config", str(unbalanced)]) == 2
    assert "divide" in capsys.readouterr().err


@pytest.mark.parametrize("mangle", [
    lambda c: c["params"].__setitem__("chi_a", "abc"),
    lambda c: c["params"]["coupling"][0].__setitem__("g", None),
    lambda c: c["ensemble"].__setitem__("dt", None),
    lambda c: c.__setitem__("params", [1]),
    lambda c: c["ensemble"].__setitem__("n_trajectories", 10.7),
    lambda c: c["ensemble"].__setitem__("n_batches", "5"),
    lambda c: c["ensemble"].__setitem__("master_seed", 1.5),
    lambda c: c.__setitem__("observables", 5),
    lambda c: c["output"].__setitem__("path", None),
    lambda c: c["output"].__setitem__("path", ["a"]),
    lambda c: c.__setitem__("observables", ["X_a", "X_a"]),
    lambda c: c.__setitem__("method", []),
], ids=["chi_a_string", "g_null", "dt_null", "params_list",
        "n_trajectories_fraction", "n_batches_string", "master_seed_fraction",
        "observables_int", "output_path_null", "output_path_list",
        "observables_duplicate", "method_empty"])
def test_main_rejects_malformed_values(tmp_path, capsys, mangle):
    """Exit 2 with an error line; never a traceback or a silent coercion."""
    raw = load_preset("fig1")
    mangle(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not list(tmp_path.glob("fig1_*"))


def test_main_rejects_duplicate_observables_override(tmp_path, capsys):
    assert main(["run", "--preset", "fig1", "--trajectories", "10",
                 "--observables", "X_a,N_a,X_a", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "duplicates" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["run"], ["oracle"], ["oracle", "--times", "0,0.1"],
], ids=["run", "oracle", "oracle_times"])
@pytest.mark.parametrize("mangle", [
    lambda c: c.__setitem__("obsevables", ["X_a"]),
    lambda c: c["params"].__setitem__("chi", 1.0),
    lambda c: c["params"]["coupling"][0].__setitem__("tau", 0.1),
    lambda c: c["ensemble"].__setitem__("sample_intervall", 5),
    lambda c: c["method"][0].__setitem__("trajectories", 10),
    lambda c: c["output"].__setitem__("fromat", "json"),
    lambda c: c["ensemble"].__setitem__("dt", 0),
    lambda c: c["ensemble"].__setitem__("sample_interval", 0),
    lambda c: c["ensemble"].__setitem__("n_batches", 0),
    lambda c: c["ensemble"].__setitem__("dt", -1e-3),
    lambda c: c["params"]["coupling"][0].__setitem__("t_end", float("nan")),
], ids=["unknown_top", "unknown_params", "unknown_segment", "unknown_ensemble",
        "unknown_method_entry", "unknown_output", "dt_zero",
        "sample_interval_zero", "n_batches_zero", "dt_negative", "t_end_nan"])
def test_run_and_oracle_reject_the_same_configs(tmp_path, capsys, mangle,
                                                command):
    """Both subcommands check a config alike: exit 2, one error line."""
    raw = load_preset("fig6")
    for entry in raw["method"]:
        entry["n_trajectories"] = 10  # cheap, should a case slip through
    mangle(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main([*command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


# A leaf becomes one of these: null, a bool, a string, a list, an object,
# NaN, a negative number or a fraction.
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.just(math.nan), st.integers(-10 ** 6, -1), st.floats(-1e6, -1e-6),
    st.floats(1e-3, 100.0).filter(lambda x: not x.is_integer()),
)


def positions(node, path=()):
    """(path, value) of the document root and of everything inside it."""
    yield path, node
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from positions(child, path + (key,))


@st.composite
def mutated_presets(draw):
    """A preset with one to three leaves replaced, keys deleted or added."""
    raw = load_preset(draw(st.sampled_from(PRESET_NAMES)))
    for _ in range(draw(st.integers(1, 3))):
        spots = list(positions(raw))
        objects = [(path, node) for path, node in spots
                   if isinstance(node, dict)]
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "replace":
            path, _ = draw(st.sampled_from(
                [(p, v) for p, v in spots if not isinstance(v, (dict, list))]))
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = draw(FUZZ_VALUES)
            continue
        _, node = draw(st.sampled_from(
            [(p, n) for p, n in objects if n or op == "add"]))
        if op == "delete":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            key = draw(st.text(min_size=1, max_size=6).filter(
                lambda k, node=node: k not in node))
            node[key] = draw(FUZZ_VALUES)
    return raw


@settings(max_examples=300, deadline=None)
@given(raw=mutated_presets())
def test_oracle_parse_layer_fuzz(raw):
    """A mutated preset exits 0, or 2 with only error lines; never raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["oracle", "--config", path, "--out",
                         os.path.join(tmp, "out"), "--times", "0,0.1"])
    lines = err.getvalue().splitlines()
    assert code in (0, 2), lines
    if code == 2:
        assert lines and all(line.startswith("error: ") for line in lines)


@st.composite
def rescaled_presets(draw):
    """A preset with one to three numbers replaced by zero, a tiny or a
    huge value: mostly valid configs, so the engine runs."""
    raw = load_preset(draw(st.sampled_from(PRESET_NAMES)))
    spots = [path for path, v in positions(raw)
             if isinstance(v, (int, float)) and not isinstance(v, bool)]
    for path in draw(st.lists(st.sampled_from(spots), min_size=1,
                              max_size=3)):
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.one_of(
            st.just(0.0), st.floats(1e-9, 1e6), st.integers(0, 10 ** 6)))
    return raw


@settings(max_examples=100, deadline=None)
@given(raw=st.one_of(mutated_presets(), rescaled_presets()))
def test_run_fuzz(raw):
    """A mutated preset run at 10 trajectories and dt=1e-3 exits 0, or 2
    with only error lines; never raises."""
    ensemble = raw.get("ensemble")
    t_final = ensemble.get("t_final") if isinstance(ensemble, dict) else None
    if isinstance(t_final, (int, float)) and not isinstance(t_final, bool):
        assume(not t_final > 5.0)  # at most 5000 substeps
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", "--config", path, "--out",
                         os.path.join(tmp, "out"), "--trajectories", "10",
                         "--dt", "1e-3"])
    lines = err.getvalue().splitlines()
    assert code in (0, 2), lines
    if code == 2:
        assert lines and all(line.startswith("error: ") for line in lines)


def test_main_rejects_unknown_preset():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "fig9"])
    assert exc.value.code == 2


def test_main_maps_oserror_to_exit_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file where a directory is needed")
    code = main(["run", "--preset", "fig1", "--trajectories", "10",
                 "--out", str(blocker / "sub")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


CLI_TIMEOUT_S = 120


def run_cli(command, args, cwd):
    """Run the CLI as its own process on the package under test."""
    package_parent = str(Path(phasesde.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p)
    return subprocess.run([*command, *args], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=CLI_TIMEOUT_S)


def check_cli_process(command, tmp_path):
    version = run_cli(command, ["--version"], tmp_path)
    assert version.returncode == 0, version.stderr
    assert version.stdout.strip() == __version__

    run = run_cli(command, ["run", "--preset", "fig1", "--trajectories", "20",
                            "--out", str(tmp_path)], tmp_path)
    assert run.returncode == 0, run.stderr
    listed = [line for line in run.stdout.splitlines() if line]
    assert str(tmp_path / "fig1_positive_p_X_a.csv") in listed


def test_cli_import_leaves_out_scipy_stats(tmp_path):
    """Importing the CLI stays cheap: scipy.stats alone costs about 0.7 s."""
    probe = run_cli([sys.executable, "-c", "import sys, phasesde.cli; "
                     "print('scipy.stats' in sys.modules)"], [], tmp_path)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"


def test_console_script(tmp_path):
    check_cli_process([sys.executable, "-m", "phasesde"], tmp_path)


@pytest.mark.skipif(shutil.which("phasesde") is None,
                    reason="phasesde console script not installed")
def test_installed_console_script(tmp_path):
    check_cli_process(["phasesde"], tmp_path)
