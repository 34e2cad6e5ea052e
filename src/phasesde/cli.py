"""Command-line front end: figure presets, config files, CSV/JSON output.

A run configuration is a JSON document::

    {
      "method": "hybrid",
      "params": {
        "omega_a": 0.0, "omega_b": 0.0, "chi_a": 1.0, "chi_b": 1.0,
        "coupling": [{"t_end": 0.1, "g": 1.0}, {"t_end": null, "g": 0.0}]
      },
      "ensemble": {
        "n_trajectories": 10000, "n_batches": 10, "dt": 1e-4,
        "t_final": 0.2, "sample_interval": 20, "master_seed": 102,
        "N_a0": 100.0, "N_b0": 0.01, "blowup_threshold": 1e6
      },
      "observables": ["X_a"],
      "output": {"path": "out/fig2", "format": "csv"}
    }

``method`` may also be a list of names or of {"name", "n_trajectories"}
objects, and ``t_end: null`` denotes an open-ended final segment.  Every
key of every section is in ``_FIELDS``, with its default or as required;
an unknown or missing key, or a value of the wrong kind, is a ConfigError.
``run`` and ``oracle`` check a config alike: ``resolve_config``, then
``validate_config`` for every method.  Every coupling schedule has exact
curves, so both accept the same configs.  Presets are config files of
exactly this shape.  One series file is written per (method, observable)
as ``<path>_<method>_<observable>.<fmt>``, its ``exact`` column the
closed form of the run's physics; CSV runs also get a
``<path>_<method>.meta.json`` sidecar carrying the resolved config, any
detected breakdown times and the engine that ran.  Identical config and
seed give identical output bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import __version__
from .core import (
    METHOD_NAMES,
    ConfigError,
    CouplingSchedule,
    EnsembleConfig,
    MethodSpec,
    SystemParams,
    validate_config,
)
from .integrator import build_step_plan, engine_record, run_ensemble
from .oracle import OracleParams, exact_series
from .representations import OBSERVABLE_NAMES
from .stats import detect_blowup, observable_series

__all__ = [
    "PRESET_NAMES",
    "load_preset",
    "resolve_config",
    "run_config",
    "oracle_table",
    "main",
]

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")

# Most sample times an ``oracle --times`` range may ask for.
MAX_TIMES = 10**6


# --------------------------------------------------------------------------
# config handling
# --------------------------------------------------------------------------


def load_preset(name: str) -> dict:
    """The raw config dict of a shipped preset."""
    if name not in PRESET_NAMES:
        raise ConfigError(
            [f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"])
    text = resources.files(__package__).joinpath(
        "presets", f"{name}.json").read_text(encoding="utf-8")
    return json.loads(text)


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except ValueError as exc:  # bad JSON or UTF-8, or over 4300 digits
        raise ConfigError([f"config file {path} is not valid JSON: {exc}"])
    except RecursionError:
        raise ConfigError([f"config file {path} nests too deeply to read"])


def _number(value, where: str, integer: bool = False):
    """A JSON number as float (or int); never coerced from anything else.

    Raises ConfigError for null, a bool, a string, any other type, an
    integer beyond the float range (without ``integer``), and (with
    ``integer``) a number with a fractional part.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        got = json.dumps(value, default=repr)
        raise ConfigError([f"{where} must be a number, got {got}"])
    if not integer:
        try:
            return float(value)
        except OverflowError:
            raise ConfigError([f"{where} must be within the float range"])
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError([f"{where} must be an integer, got {value!r}"])
    return int(value)


def _integer(value, where: str) -> int:
    return _number(value, where, integer=True)


def _open_end(value, where: str) -> float:
    return math.inf if value is None else _number(value, where)


def _instance(kind: type, noun: str):
    """A check that accepts a ``kind`` and returns a shallow copy of it."""
    def check(value, where: str):
        if not isinstance(value, kind):
            raise ConfigError([f"{where} must be {noun}"])
        return kind(value)
    return check


def _coupling(value, where: str) -> CouplingSchedule:
    if not isinstance(value, list) or not value:
        raise ConfigError([f"{where} must be a non-empty list"])
    return CouplingSchedule(tuple(
        tuple(_section(seg, "segment", f"{where}[{i}]").values())
        for i, seg in enumerate(value)))


def _choice(options: tuple, what: str):
    """A check that accepts exactly one of ``options``."""
    def check(value, where: str):
        if value not in options:
            raise ConfigError([f"unknown {what} {value!r} in {where}; "
                               f"available: {', '.join(options)}"])
        return value
    return check


def _path(value, where: str) -> str:
    # Output names are made by appending to the path's last component.
    if (not isinstance(value, str) or "\0" in value
            or not os.path.basename(value)):
        raise ConfigError([f"{where} must be a string without NUL whose "
                           "last component, the file stem, is not empty"])
    return value


_object = _instance(dict, "an object")
_list = _instance(list, "a list")
_method_name = _choice(METHOD_NAMES, "method")
_format = _choice(("csv", "json"), "output format")
_REQUIRED = "required"

# Every key of every config section: (check, default).  The check parses
# the value or raises ConfigError naming it; None keeps the value for the
# caller.  A key whose default is _REQUIRED must be present.
_FIELDS = {
    "config": {"method": (None, _REQUIRED), "params": (_object, _REQUIRED),
               "ensemble": (_object, _REQUIRED),
               "observables": (_list, _REQUIRED),
               "output": (_object, _REQUIRED)},
    "params": {"omega_a": (_number, _REQUIRED), "omega_b": (_number, _REQUIRED),
               "chi_a": (_number, _REQUIRED), "chi_b": (_number, _REQUIRED),
               "coupling": (_coupling, _REQUIRED)},
    "segment": {"t_end": (_open_end, _REQUIRED), "g": (_number, _REQUIRED)},
    # EnsembleConfig's fields, with its defaults.
    "ensemble": {f.name: ({"int": _integer, "float": _number}[f.type],
                          _REQUIRED if f.default is dataclasses.MISSING
                          else f.default)
                 for f in dataclasses.fields(EnsembleConfig)},
    "method": {"name": (_method_name, _REQUIRED),
               "n_trajectories": (_integer, None)},
    "output": {"path": (_path, _REQUIRED), "format": (_format, "csv")},
}


def _section(d, row: str, where: str | None = None) -> dict:
    """Check ``d`` against ``_FIELDS[row]``: its values, defaults filled in.

    Raises ConfigError for a non-object, a missing or unknown key, and any
    value its check rejects.  ``where`` names the section in messages.
    """
    where = where or row
    fields = _FIELDS[row]
    d = _object(d, where)
    unknown = [key for key in d if key not in fields]
    if unknown:
        raise ConfigError([f"{where} has unknown keys {unknown}"])
    missing = [key for key, (_, default) in fields.items()
               if default is _REQUIRED and key not in d]
    if missing:
        raise ConfigError([f"{where} is missing {missing}"])
    return {key: default if key not in d
            else d[key] if check is None else check(d[key], f"{where}.{key}")
            for key, (check, default) in fields.items()}


def _distinct(values: list, what: str):
    if not values or len(set(values)) != len(values):
        raise ConfigError([f"{what} must be non-empty, without duplicates; "
                           f"got {values}"])


def _known_observables(names: list):
    bad = [o for o in names if o not in OBSERVABLE_NAMES]
    if bad:
        raise ConfigError(
            [f"unknown observables {bad}; available: {', '.join(OBSERVABLE_NAMES)}"])


def _params_from_json(d: dict) -> SystemParams:
    return SystemParams(**_section(d, "params"))


def _ensemble_from_json(d: dict, n_trajectories: int) -> EnsembleConfig:
    n = _integer(n_trajectories, "n_trajectories")
    return EnsembleConfig(**{**_section(d, "ensemble"), "n_trajectories": n})


def resolve_config(raw: dict, overrides: dict | None = None) -> dict:
    """Check a raw config dict and apply CLI overrides.

    Returns a new dict in canonical form: method is always a list of
    {name, n_trajectories} objects, and output always has a format.  The
    canonical form is what gets embedded in output metadata, and it
    parses back to the same run.
    """
    over = {k: v for k, v in (overrides or {}).items() if v is not None}
    config = _section(raw, "config")
    _section(config["params"], "params")

    ensemble = config["ensemble"]
    for option, key, check in (("seed", "master_seed", _integer),
                               ("dt", "dt", _number),
                               ("trajectories", "n_trajectories", _integer)):
        if option in over:
            ensemble[key] = check(over[option], f"--{option}")
    default_n = _section(ensemble, "ensemble")["n_trajectories"]

    field = config["method"]
    methods = [_section({"name": e} if isinstance(e, str) else e, "method",
                        f"method[{i}]")
               for i, e in enumerate(field if isinstance(field, list) else [field])]
    _distinct([e["name"] for e in methods], "method entries")
    for entry in methods:
        if entry["n_trajectories"] is None or "trajectories" in over:
            entry["n_trajectories"] = default_n
    if "method" in over:
        name = _method_name(over["method"], "--method")
        methods = [e for e in methods if e["name"] == name] or [
            {"name": name, "n_trajectories": default_n}]
    config["method"] = methods

    if "observables" in over:
        obs = over["observables"]
        obs = obs.split(",") if isinstance(obs, str) else list(obs)
        config["observables"] = [o.strip() for o in obs if o.strip()]
    _known_observables(config["observables"])
    _distinct(config["observables"], "observables")

    output = config["output"]
    output.update(_section(output, "output"))
    if "out" in over:
        output["path"] = os.path.join(
            over["out"], os.path.basename(output["path"]))
    if "format" in over:
        output["format"] = _format(over["format"], "--format")
    return config


def _runs(resolved: dict) -> tuple:
    """(params, [(spec, config), ...]) of a resolved config, validated."""
    params = _params_from_json(resolved["params"])
    runs = [(MethodSpec.of(e["name"]),
             _ensemble_from_json(resolved["ensemble"], e["n_trajectories"]))
            for e in resolved["method"]]
    for spec, config in runs:
        validate_config(config, spec, params)
    return params, runs


# --------------------------------------------------------------------------
# output writers
# --------------------------------------------------------------------------


def _write_text(path: str, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_table(path: str, columns: dict, metadata: dict):
    """Write equal-length columns as CSV or, with ``metadata``, as JSON.

    The path's extension picks the format.  JSON writes a non-finite
    value as null.
    """
    if path.endswith(".csv"):
        # One row template, applied once to the values in row order.  A
        # list column holds cells formatted already, for %s fields.
        n = len(next(iter(columns.values())))
        row = ",".join("%s" if isinstance(col, list) else "%.17g"
                       for col in columns.values())
        values = np.column_stack([np.asarray(col, dtype=object)
                                  for col in columns.values()])
        _write_text(path, ",".join(columns) + "\n"
                    + (row + "\n") * n % tuple(values.ravel().tolist()))
        return
    _write_text(path, json.dumps({"metadata": metadata, "columns": {
        k: [float(x) if math.isfinite(x) else None for x in col]
        for k, col in columns.items()}}, indent=2) + "\n")


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


def _execute(resolved: dict) -> dict:
    """Run every (method, observable) pair of a resolved config.

    Returns {"outputs": [paths], "series": {(method, obs): ObservableSeries},
    "breakdown_times": {(method, obs): float | None}}.
    """
    params, runs = _runs(resolved)
    stem = resolved["output"]["path"]
    fmt = resolved["output"]["format"]

    outputs, all_series, breakdowns = [], {}, {}
    engine = engine_record()
    for spec, config in runs:
        result = run_ensemble(spec, params, config)
        # The two columns every file of a method shares: formatted once.
        shared = {"t": result.times, "live_fraction": result.live_fraction}
        if fmt == "csv":
            shared = {k: ("%.17g\n" * len(v) % tuple(v.tolist())).splitlines()
                      for k, v in shared.items()}
        for obs in resolved["observables"]:
            series = observable_series(result, obs)
            t_break = detect_blowup(series)
            all_series[(spec.method, obs)] = series
            breakdowns[(spec.method, obs)] = t_break
            path = f"{stem}_{spec.method}_{obs}.{fmt}"
            _write_table(path, {
                "t": shared["t"], "mean": series.mean,
                "stderr": series.stderr, "exact": series.exact,
                "live_fraction": shared["live_fraction"],
            }, {"version": __version__, "method": spec.method, "observable": obs,
                "breakdown_time": t_break, "engine": engine,
                "config": resolved})
            outputs.append(path)
        if fmt == "csv":
            sidecar = f"{stem}_{spec.method}.meta.json"
            _write_text(sidecar, json.dumps({
                "version": __version__,
                "method": spec.method,
                "breakdown_times": {obs: breakdowns[(spec.method, obs)]
                                    for obs in resolved["observables"]},
                "engine": engine,
                "config": resolved,
            }, indent=2) + "\n")
            outputs.append(sidecar)

    return {"outputs": outputs, "series": all_series,
            "breakdown_times": breakdowns}


def run_config(path: str, overrides: dict | None = None) -> dict:
    """Execute a config file end to end, writing its output files."""
    return _execute(resolve_config(load_config_file(path), overrides))


# --------------------------------------------------------------------------
# oracle tables
# --------------------------------------------------------------------------


def oracle_table(params, times, observables) -> dict:
    """Exact values on a time grid: {"t": grid, name: values, ...}.

    ``params`` is an OracleParams; every name of ``OBSERVABLE_NAMES`` has
    a closed form.
    """
    times = np.asarray(times, dtype=float)
    _known_observables(observables)
    table = {"t": times}
    for name in observables:
        table[name] = np.asarray(exact_series(name, times, params), dtype=float)
    return table


def _parse_times(text: str) -> np.ndarray:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(["--times range must be start:stop:step"])
        start, stop, step = (_time(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(["--times range must advance: start:stop:step"])
        span = (stop - start) / step + 1e-9
        if not span < MAX_TIMES:  # an overflow to inf included
            raise ConfigError(
                [f"--times range must give at most {MAX_TIMES} points"])
        return start + step * np.arange(int(math.floor(span)) + 1)
    times = [_time(p) for p in text.split(",") if p.strip()]
    if not times:
        raise ConfigError(["--times must give at least one time"])
    return np.asarray(times)


def _time(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(
            [f"--times entries must be finite numbers >= 0, got {text!r}"])
    return value


def _oracle_command(resolved: dict, times_text: str | None) -> dict:
    params, runs = _runs(resolved)
    config = runs[0][1]
    times = (build_step_plan(config, params).sample_times if times_text is None
             else _parse_times(times_text))
    table = oracle_table(OracleParams.of(params, config), times,
                         resolved["observables"])
    path = f"{resolved['output']['path']}_exact.{resolved['output']['format']}"
    _write_table(path, table, {"version": __version__, "config": resolved})
    return {"outputs": [path], "table": table}


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasesde",
        description="Stochastic phase-space simulation of two coupled Kerr "
                    "oscillators.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--preset", choices=PRESET_NAMES,
                         help="name of a shipped preset")
        src.add_argument("--config", metavar="PATH",
                         help="path to a JSON run config")
        p.add_argument("--out", metavar="DIR",
                       help="redirect output files into this directory")
        p.add_argument("--format", choices=("csv", "json"),
                       help="override the output format")
        p.add_argument("--observables", metavar="LIST",
                       help="comma-separated observable names")

    run_p = sub.add_parser("run", help="integrate an ensemble and write series")
    add_common(run_p)
    run_p.add_argument("--seed", type=int, metavar="U64",
                       help="override the master seed")
    run_p.add_argument("--trajectories", type=int, metavar="N",
                       help="override the trajectory count for every method")
    run_p.add_argument("--dt", type=float, metavar="F",
                       help="override the time step")
    run_p.add_argument("--method", choices=METHOD_NAMES,
                       help="run only this method")

    orc_p = sub.add_parser("oracle", help="write exact reference tables")
    add_common(orc_p)
    orc_p.add_argument("--times", metavar="SPEC",
                       help="start:stop:step range or comma-separated list "
                            "(default: the config's sampling grid)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key, None) for key in (
        "seed", "trajectories", "dt", "out", "format", "method", "observables")}
    try:
        raw = load_preset(args.preset) if args.preset else load_config_file(
            args.config)
        resolved = resolve_config(raw, overrides)
        outcome = (_execute(resolved) if args.command == "run"
                   else _oracle_command(resolved, args.times))
        for path in outcome["outputs"]:
            print(path)
        for (method, obs), t_break in outcome.get("breakdown_times", {}).items():
            if t_break is not None:
                print(f"note: {method}/{obs} sampling breaks down near "
                      f"t={t_break:g}", file=sys.stderr)
        return 0
    except ConfigError as exc:
        for line in exc.violations:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
