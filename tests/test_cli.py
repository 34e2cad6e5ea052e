"""Config resolution, preset execution, output files, and the entry point."""
import contextlib
import copy
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
from phasesde import (ConfigError, EnsembleConfig, __version__, _kernel,
                      cli, integrator)
from phasesde.cli import (
    PRESET_NAMES,
    load_preset,
    main,
    oracle_table,
    resolve_config,
    run_config,
)
from phasesde.oracle import OracleParams, exact_series


def read_csv(path):
    raw = np.genfromtxt(path, delimiter=",", names=True, dtype=float)
    return raw


def preset_file(tmp_path, name):
    """A config file holding the shipped preset ``name``."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(load_preset(name)))
    return str(path)


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


@pytest.mark.parametrize("overrides", [
    {"trajectories": 2.7}, {"trajectories": True}, {"seed": 3.9},
    {"seed": "7"}, {"dt": "1e-3"}])
def test_resolve_rejects_overrides_it_would_have_to_repair(overrides):
    """An override is checked like the config value it replaces."""
    option = next(iter(overrides))
    with pytest.raises(ConfigError, match=f"^--{option} must be"):
        resolve_config(load_preset("fig2"), overrides)


def test_optional_ensemble_keys_default_to_the_dataclass_defaults():
    required = {"n_trajectories": 10, "dt": 1e-3, "t_final": 0.1,
                "N_a0": 1.0, "N_b0": 0.0}
    assert cli._ensemble_from_json(required, 10) == EnsembleConfig(**required)


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
    run_config(preset_file(tmp_path, "fig2"),
               {"trajectories": 50, "out": str(tmp_path / "a")})
    assert main(["run", "--preset", "fig2", "--trajectories", "50",
                 "--out", str(tmp_path / "b")]) == 0
    series = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert series == sorted(p.name for p in (tmp_path / "b").glob("*.csv"))
    assert "fig2_hybrid_X_a.csv" in series
    for name in series:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), name


def test_csv_columns_round_trip_floats_exactly(tmp_path):
    outcome = run_config(preset_file(tmp_path, "fig2"),
                         {"trajectories": 50, "out": str(tmp_path)})
    series = outcome["series"][("hybrid", "X_a")]
    table = read_csv(tmp_path / "fig2_hybrid_X_a.csv")
    assert table.dtype.names == ("t", "mean", "stderr", "exact",
                                 "live_fraction")
    np.testing.assert_array_equal(table["t"], series.times)
    np.testing.assert_array_equal(table["mean"], series.mean)
    np.testing.assert_array_equal(table["exact"], series.exact)


@pytest.mark.parametrize("rows", [0, 1, 9])
def test_csv_table_gives_the_bytes_of_a_per_cell_formatter(tmp_path, rows):
    """The one-pass writer formats each value as f"{x:.17g}" does."""
    special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1,
               -2.5e-310, 1.0]
    columns = {"t": np.arange(rows) * 0.1,
               "mean": np.array(special[:rows]),
               "stderr": np.array(special[::-1][:rows]),
               "exact": np.array(special[3:] + special[:3])[:rows],
               "live_fraction": np.linspace(0.0, 1.0, rows)}
    path = tmp_path / "table.csv"
    cli._write_table(str(path), columns, {})
    cells = [[f"{x:.17g}" for x in col] for col in columns.values()]
    expected = "\n".join([",".join(columns), *map(",".join, zip(*cells))])
    assert path.read_text(encoding="utf-8") == expected + "\n"


def test_run_writes_each_observable_as_its_series(tmp_path):
    """A run of two methods and four observables that loses lanes, so that
    live_fraction varies and cells go NaN: every CSV is the per-cell
    f"{x:.17g}" rendering of its ObservableSeries, and the JSON format
    writes the same values as floats, with null for a non-finite one."""
    raw = {
        "method": ["positive_p", "hybrid"],
        "params": {"omega_a": 0.0, "omega_b": 0.0, "chi_a": 1.0,
                   "chi_b": 1.0, "coupling": [{"t_end": None, "g": 1.0}]},
        "ensemble": {"n_trajectories": 40, "n_batches": 4, "dt": 1e-4,
                     "t_final": 0.3, "sample_interval": 100,
                     "master_seed": 77, "N_a0": 100.0, "N_b0": 0.01,
                     "blowup_threshold": 1.2},
        "observables": ["X_a", "N_a", "var_Y_b", "C_Na_Yb"],
        "output": {"path": str(tmp_path / "csv" / "loss"), "format": "csv"},
    }
    cfg_path = tmp_path / "loss.json"
    cfg_path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        series = run_config(str(cfg_path))["series"]
        run_config(str(cfg_path), {"format": "json",
                                   "out": str(tmp_path / "json")})
    assert len(series) == 8
    nulls = 0
    for (method, obs), s in series.items():
        assert len(set(s.live_fraction)) > 2
        columns = {"t": s.times, "mean": s.mean, "stderr": s.stderr,
                   "exact": s.exact, "live_fraction": s.live_fraction}
        cells = [[f"{x:.17g}" for x in col] for col in columns.values()]
        expected = "\n".join([",".join(columns), *map(",".join, zip(*cells))])
        csv = tmp_path / "csv" / f"loss_{method}_{obs}.csv"
        assert csv.read_text(encoding="utf-8") == expected + "\n"
        doc = json.loads((tmp_path / "json" / f"loss_{method}_{obs}.json")
                         .read_text())["columns"]
        for key, col in columns.items():
            assert doc[key] == [x if math.isfinite(x) else None
                                for x in col.tolist()]
            nulls += doc[key].count(None)
    assert nulls > 0


def test_same_seed_same_bytes_different_seed_different(tmp_path):
    kw = ["run", "--preset", "fig1", "--trajectories", "30"]
    assert main([*kw, "--out", str(tmp_path / "r1")]) == 0
    assert main([*kw, "--out", str(tmp_path / "r2")]) == 0
    assert main([*kw, "--seed", "999", "--out", str(tmp_path / "r3")]) == 0
    base = (tmp_path / "r1" / "fig1_positive_p_X_a.csv").read_bytes()
    assert (tmp_path / "r2" / "fig1_positive_p_X_a.csv").read_bytes() == base
    assert (tmp_path / "r3" / "fig1_positive_p_X_a.csv").read_bytes() != base


def test_method_override_selects_one_method(tmp_path, capsys):
    assert main(["run", "--preset", "fig4", "--trajectories", "40",
                 "--method", "wigner", "--out", str(tmp_path)]) == 0
    names = [p.rsplit("/", 1)[-1] for p in capsys.readouterr().out.split()]
    assert sorted(names) == ["fig4_wigner.meta.json", "fig4_wigner_X_a.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_method_override_runs_a_method_the_preset_lacks(tmp_path, capsys):
    """fig2 runs only hybrid; ``--method wigner`` runs wigner at the
    ensemble's n_trajectories."""
    assert load_preset("fig2")["method"] == "hybrid"
    assert main(["run", "--preset", "fig2", "--method", "wigner",
                 "--out", str(tmp_path)]) == 0
    names = [p.rsplit("/", 1)[-1] for p in capsys.readouterr().out.split()]
    assert sorted(names) == ["fig2_wigner.meta.json", "fig2_wigner_X_a.csv"]
    meta = json.loads((tmp_path / "fig2_wigner.meta.json").read_text())
    assert meta["config"]["method"] == [{"name": "wigner",
                                         "n_trajectories": 10000}]


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


def test_outputs_name_the_engine_that_ran(tmp_path, monkeypatch):
    """The sidecar and the JSON metadata record the engine, and for the
    native kernel whether its cexp is the port or libm and whether its
    build draws uniforms with AVX-512; CSV bytes are the same on every
    engine."""
    monkeypatch.setattr(integrator, "_native", None)
    kernel = integrator._load_native()
    if not kernel:
        pytest.skip("runs use the numpy loop here")
    libm = copy.copy(kernel)
    libm.cexp_port = False
    native = {"name": "native", "normals": kernel.normals}
    records = {"numpy": (False, {"name": "numpy"}),
               "port": (kernel, {**native, "cexp": "port"}),
               "libm": (libm, {**native, "cexp": "libm"})}
    flags = _kernel._flags()
    if "-DPHASESDE_AVX512" in flags:  # else the default build is scalar
        monkeypatch.setattr(_kernel, "_flags", lambda: [
            f for f in flags if f != "-DPHASESDE_AVX512"])
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
        scalar = _kernel.Kernel(_kernel.build())
        records["scalar"] = (scalar, {"name": "native", "cexp": "port",
                                      "normals": "scalar"})
    csv = set()
    for name, (engine, record) in records.items():
        monkeypatch.setattr(integrator, "_native", engine)
        for fmt in ("csv", "json"):
            assert main(["run", "--preset", "fig1", "--trajectories", "30",
                         "--format", fmt, "--out",
                         str(tmp_path / name / fmt)]) == 0
        out = tmp_path / name
        meta = json.loads((out / "csv" / "fig1_positive_p.meta.json")
                          .read_text())
        doc = json.loads((out / "json" / "fig1_positive_p_X_a.json")
                         .read_text())
        assert meta["engine"] == doc["metadata"]["engine"] == record
        csv.add((out / "csv" / "fig1_positive_p_X_a.csv").read_bytes())
    assert len(csv) == 1


def test_json_format_carries_metadata(tmp_path):
    assert main(["run", "--preset", "fig1", "--trajectories", "30",
                 "--format", "json", "--out", str(tmp_path)]) == 0
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
                                   "0:1e18:1", "0:1e308:1e-308",
                                   ",", "", " ", "-1,0.5", "-1:0:0.5",
                                   "0.5,-1e-9", "0:1", "1:0:0.1", "0:1:0"])
def test_oracle_command_rejects_malformed_times(tmp_path, capsys, times):
    # One argument, so that argparse cannot take "-1,0.5" for an option.
    assert main(["oracle", "--preset", "fig1", "--out", str(tmp_path),
                 f"--times={times}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_oracle_command_merges_equal_coupling_segments(tmp_path):
    """fig6's switch-off written as three segments, two of them g = 0, has
    fig6's closed form, so ``oracle`` writes fig6's table."""
    raw = load_preset("fig6")
    raw["params"]["coupling"] = [{"t_end": 0.1, "g": 1.0},
                                 {"t_end": 0.2, "g": 0.0},
                                 {"t_end": None, "g": 0.0}]
    path = tmp_path / "split.json"
    path.write_text(json.dumps(raw))
    times = "--times=0,0.05,0.1,0.15,0.3"
    assert main(["oracle", "--config", str(path), "--out",
                 str(tmp_path / "split"), times]) == 0
    assert main(["oracle", "--preset", "fig6", "--out",
                 str(tmp_path / "preset"), times]) == 0
    split = read_csv(tmp_path / "split" / "fig6_exact.csv")
    preset = read_csv(tmp_path / "preset" / "fig6_exact.csv")
    np.testing.assert_array_equal(split["C_Na_Yb"], preset["C_Na_Yb"])
    assert np.isfinite(split["C_Na_Yb"]).all()


def test_run_and_oracle_accept_a_three_segment_coupling(tmp_path):
    """fig6 with a coupling that changes sign and stays on: ``run`` and
    ``oracle`` both exit 0, with the same finite exact curve."""
    raw = load_preset("fig6")
    raw["params"]["coupling"] = [{"t_end": 0.05, "g": 1.0},
                                 {"t_end": 0.1, "g": -2.0},
                                 {"t_end": None, "g": 0.5}]
    raw["ensemble"]["dt"] = 1e-3
    for entry in raw["method"]:
        entry["n_trajectories"] = 200
    path = tmp_path / "three.json"
    path.write_text(json.dumps(raw))
    for command in ("run", "oracle"):
        assert main([command, "--config", str(path), "--out",
                     str(tmp_path / command)]) == 0
    exact = read_csv(tmp_path / "oracle" / "fig6_exact.csv")["C_Na_Yb"]
    assert len(exact) == 11 and np.isfinite(exact).all()
    for method in ("hybrid", "wigner"):
        table = read_csv(tmp_path / "run" / f"fig6_{method}_C_Na_Yb.csv")
        np.testing.assert_array_equal(table["exact"], exact)


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
        assert np.isnan(exact_series("C_Na_Yb", [0.0, 0.1], p)).all()
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
        series = out["series"][(method, "C_Na_Yb")]
        assert np.isnan(series.exact).all()
        assert np.isnan(series.mean).all()
        assert (series.n_batches_used == 0).all()


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


@pytest.mark.parametrize("content,needle", [
    (b'{"method": "hybrid\xff"}', "not valid JSON"),
    (b"[" * 100_000 + b"]" * 100_000, "nests too deeply"),
    (b"[" + b"1" * 5000 + b"]", "4300 digits"),
], ids=["invalid_utf8", "deep_nesting", "integer_of_5000_digits"])
def test_main_rejects_an_unreadable_config_file(tmp_path, capsys, content,
                                                needle):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert needle in err


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
    lambda c: c["ensemble"].__setitem__("dt", 10 ** 400),
    lambda c: c["params"]["coupling"][0].__setitem__("t_end", 10 ** 400),
], ids=["chi_a_string", "g_null", "dt_null", "params_list",
        "n_trajectories_fraction", "n_batches_string", "master_seed_fraction",
        "observables_int", "output_path_null", "output_path_list",
        "observables_duplicate", "method_empty", "dt_beyond_float",
        "t_end_beyond_float"])
def test_main_rejects_malformed_values(tmp_path, capsys, mangle):
    """Exit 2 with an error line; never a traceback or a silent coercion.

    An integer beyond the float range is written out in full, 401 digits.
    """
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
    lambda c: c["ensemble"].__setitem__("blowup_threshold", 1e100),
    lambda c: c["ensemble"].__setitem__("N_b0", 2 ** 400),
    lambda c: c["params"].__setitem__("coupling", []),
    lambda c: c["params"].__setitem__("coupling", {}),
    lambda c: c["output"].__setitem__("path", "outdir/"),
], ids=["unknown_top", "unknown_params", "unknown_segment", "unknown_ensemble",
        "unknown_method_entry", "unknown_output", "dt_zero",
        "sample_interval_zero", "n_batches_zero", "dt_negative", "t_end_nan",
        "blowup_threshold_huge", "N_b0_huge", "coupling_empty",
        "coupling_object", "path_without_stem"])
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


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_a_step_count_beyond_the_float_range_exits_2(tmp_path, capsys,
                                                      command):
    """A dt so small that t_final / dt is not finite is a config error:
    ``run --dt`` and ``oracle`` on a config file exit 2 with one error
    line, not an OverflowError from the step plan."""
    if command == "run":
        args = ["run", "--preset", "fig2", "--dt", "1e-320",
                "--trajectories", "10"]
    else:
        raw = load_preset("fig2")
        raw["ensemble"]["dt"] = 1e-320
        path = tmp_path / "tiny_dt.json"
        path.write_text(json.dumps(raw))
        args = ["oracle", "--config", str(path)]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "t_final / dt must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_a_step_count_beyond_the_bound_exits_2(tmp_path, capsys, command):
    """A finite t_final / dt above MAX_STEPS is a config error too: fig2
    at dt 1e-12 would take 2e11 steps, and its plan would grow until
    memory ran out."""
    if command == "run":
        args = ["run", "--preset", "fig2", "--dt", "1e-12",
                "--trajectories", "10"]
    else:
        raw = load_preset("fig2")
        raw["ensemble"]["dt"] = 1e-12
        path = tmp_path / "small_dt.json"
        path.write_text(json.dumps(raw))
        args = ["oracle", "--config", str(path)]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: t_final / dt must be at most 1000000\n", err
    assert not out.exists()


# A leaf becomes one of these: null, a bool, a string, a list, an object,
# NaN, a negative number, a fraction or an integer beyond the float range.
FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.just(math.nan), st.integers(-10 ** 6, -1), st.floats(-1e6, -1e-6),
    st.floats(1e-3, 100.0).filter(lambda x: not x.is_integer()),
    st.integers(2 ** 1024, 10 ** 400),
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


def test_load_preset_rejects_an_unknown_name():
    with pytest.raises(ConfigError, match="unknown preset 'fig9'"):
        load_preset("fig9")


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


def test_kernel_path_run_loads_no_scipy(tmp_path):
    """A run on the native kernel, its probe of the numpy loop included,
    loads no scipy module: importing scipy.special costs about 0.25 s and
    16 MB of every process."""
    script = (
        "import sys\n"
        "from phasesde import cli, integrator\n"
        f"cli.run_config({preset_file(tmp_path, 'fig2')!r}, "
        f"{{'trajectories': 20, 'dt': 1e-3, 'out': {str(tmp_path)!r}}})\n"
        "print(bool(integrator._native))\n"
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))\n")
    probe = run_cli([sys.executable, "-c", script], [], tmp_path)
    assert probe.returncode == 0, probe.stderr
    native, scipy_loaded = probe.stdout.split()
    if native != "True":
        pytest.skip("the native kernel does not load; runs use the numpy loop")
    assert scipy_loaded == "False"


def test_console_script(tmp_path):
    check_cli_process([sys.executable, "-m", "phasesde"], tmp_path)


@pytest.mark.skipif(shutil.which("phasesde") is None,
                    reason="phasesde console script not installed")
def test_installed_console_script(tmp_path):
    check_cli_process(["phasesde"], tmp_path)
