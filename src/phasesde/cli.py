"""Command-line front end: figure presets, config files, CSV/JSON output.

A run configuration is a JSON document::

    {
      "method": "hybrid",                  # or a list; entries may be
                                           # {"name": ..., "n_trajectories": ...}
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

``t_end: null`` denotes an open-ended final segment.  Presets are shipped
as config files of exactly this shape, so every preset run is reproducible
from a plain config file.  One series file is written per (method,
observable) as ``<path>_<method>_<observable>.<fmt>``; CSV runs also get a
``<path>_<method>.meta.json`` sidecar carrying the resolved config and any
detected breakdown times.  Identical config and seed give identical output
bytes.
"""
from __future__ import annotations

import argparse
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
from .integrator import build_step_plan, run_ensemble
from .oracle import EXACT_OBSERVABLES, exact_series, match_schedule
from .representations import OBSERVABLE_NAMES
from .stats import ObservableSeries, detect_blowup, observable_series

__all__ = [
    "PRESET_NAMES",
    "load_preset",
    "resolve_config",
    "run_preset",
    "run_config",
    "oracle_table",
    "main",
]

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6")


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
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config file {path} is not valid JSON: {exc}"])


def _number(value, where: str, integer: bool = False):
    """A JSON number as float (or int); never coerced from anything else.

    Raises ConfigError for null, a bool, a string, any other type, and
    (with ``integer``) a number with a fractional part.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        got = json.dumps(value, default=repr)
        raise ConfigError([f"{where} must be a number, got {got}"])
    if not integer:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError([f"{where} must be an integer, got {value!r}"])
    return int(value)


def _schedule_from_json(segments) -> CouplingSchedule:
    if not isinstance(segments, list) or not segments:
        raise ConfigError(["params.coupling must be a non-empty list"])
    segs = []
    for i, seg in enumerate(segments):
        if not isinstance(seg, dict) or set(seg) != {"t_end", "g"}:
            raise ConfigError(
                ["each coupling segment must be an object with t_end and g"])
        where = f"params.coupling[{i}]"
        t_end = (math.inf if seg["t_end"] is None
                 else _number(seg["t_end"], f"{where}.t_end"))
        segs.append((t_end, _number(seg["g"], f"{where}.g")))
    return CouplingSchedule(tuple(segs))


def _schedule_to_json(schedule: CouplingSchedule) -> list:
    return [
        {"t_end": None if math.isinf(t) else t, "g": g}
        for t, g in schedule.segments
    ]


def _params_from_json(d: dict) -> SystemParams:
    missing = {"omega_a", "omega_b", "chi_a", "chi_b", "coupling"} - set(d)
    if missing:
        raise ConfigError([f"params is missing {sorted(missing)}"])
    return SystemParams(
        **{k: _number(d[k], f"params.{k}")
           for k in ("omega_a", "omega_b", "chi_a", "chi_b")},
        coupling=_schedule_from_json(d["coupling"]),
    )


def _params_to_json(params: SystemParams) -> dict:
    return {
        "omega_a": params.omega_a,
        "omega_b": params.omega_b,
        "chi_a": params.chi_a,
        "chi_b": params.chi_b,
        "coupling": _schedule_to_json(params.coupling),
    }


def _ensemble_from_json(d: dict, n_trajectories: int) -> EnsembleConfig:
    missing = {"n_trajectories", "dt", "t_final", "N_a0", "N_b0"} - set(d)
    if missing:
        raise ConfigError([f"ensemble is missing {sorted(missing)}"])

    def number(key, default=None, integer=False):
        return _number(d.get(key, default), f"ensemble.{key}", integer)

    return EnsembleConfig(
        n_trajectories=_number(n_trajectories, "n_trajectories", integer=True),
        dt=number("dt"),
        t_final=number("t_final"),
        N_a0=number("N_a0"),
        N_b0=number("N_b0"),
        n_batches=number("n_batches", 10, integer=True),
        sample_interval=number("sample_interval", 1, integer=True),
        master_seed=number("master_seed", 0, integer=True),
        blowup_threshold=number("blowup_threshold", 1e6),
    )


def _normalize_methods(method_field, default_n: int) -> list:
    entries = method_field if isinstance(method_field, list) else [method_field]
    out = []
    for entry in entries:
        if isinstance(entry, str):
            entry = {"name": entry}
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(
                ["method entries must be names or objects with a 'name' key"])
        name = entry["name"]
        if name not in METHOD_NAMES:
            raise ConfigError(
                [f"unknown method {name!r}; available: {', '.join(METHOD_NAMES)}"])
        out.append({
            "name": name,
            "n_trajectories": _number(entry.get("n_trajectories", default_n),
                                      f"method {name} n_trajectories",
                                      integer=True),
        })
    names = [e["name"] for e in out]
    if len(set(names)) != len(names):
        raise ConfigError(["duplicate method entries in config"])
    return out


def resolve_config(raw: dict, overrides: dict | None = None) -> dict:
    """Normalize a raw config dict and apply CLI overrides.

    Returns a new dict in canonical form: method is always a list of
    {name, n_trajectories} objects.  The canonical form is what gets
    embedded in output metadata, and it parses back to the same run.
    """
    overrides = dict(overrides or {})
    missing = {"method", "params", "ensemble", "observables", "output"} - set(raw)
    if missing:
        raise ConfigError([f"config is missing {sorted(missing)}"])

    for key in ("params", "ensemble", "output"):
        if not isinstance(raw[key], dict):
            raise ConfigError([f"{key} must be an object"])
    ensemble = dict(raw["ensemble"])
    if "n_trajectories" not in ensemble:
        raise ConfigError(["ensemble is missing ['n_trajectories']"])
    if overrides.get("seed") is not None:
        ensemble["master_seed"] = int(overrides["seed"])
    if overrides.get("dt") is not None:
        ensemble["dt"] = float(overrides["dt"])
    if overrides.get("trajectories") is not None:
        ensemble["n_trajectories"] = int(overrides["trajectories"])

    default_n = _number(ensemble["n_trajectories"], "ensemble.n_trajectories",
                        integer=True)
    methods = _normalize_methods(raw["method"], default_n)
    if overrides.get("trajectories") is not None:
        for entry in methods:
            entry["n_trajectories"] = int(overrides["trajectories"])
    if overrides.get("method") is not None:
        name = overrides["method"]
        if name not in METHOD_NAMES:
            raise ConfigError([f"unknown method {name!r}"])
        kept = [e for e in methods if e["name"] == name]
        methods = kept or [{
            "name": name,
            "n_trajectories": default_n,
        }]

    if not isinstance(raw["observables"], list):
        raise ConfigError(["observables must be a list of names"])
    observables = list(raw["observables"])
    if overrides.get("observables") is not None:
        obs = overrides["observables"]
        observables = obs.split(",") if isinstance(obs, str) else list(obs)
        observables = [o.strip() for o in observables if o.strip()]
    bad = [o for o in observables if o not in OBSERVABLE_NAMES]
    if bad:
        raise ConfigError(
            [f"unknown observables {bad}; available: {', '.join(OBSERVABLE_NAMES)}"])
    if not observables:
        raise ConfigError(["observables must be a non-empty list"])

    output = dict(raw["output"])
    output.setdefault("format", "csv")
    if "path" not in output:
        raise ConfigError(["output is missing ['path']"])
    if not isinstance(output["path"], str) or not output["path"]:
        raise ConfigError(["output.path must be a non-empty string"])
    if overrides.get("out") is not None:
        output["path"] = os.path.join(
            overrides["out"], os.path.basename(output["path"]))
    if overrides.get("format") is not None:
        output["format"] = overrides["format"]
    if output["format"] not in ("csv", "json"):
        raise ConfigError([f"unknown output format {output['format']!r}"])

    return {
        "method": methods,
        "params": dict(raw["params"]),
        "ensemble": ensemble,
        "observables": observables,
        "output": output,
    }


# --------------------------------------------------------------------------
# output writers
# --------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: str, text: str):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _series_csv(series: ObservableSeries) -> str:
    lines = ["t,mean,stderr,exact,live_fraction"]
    for i in range(len(series.times)):
        exact = "" if series.exact is None else _fmt(series.exact[i])
        lines.append(",".join([
            _fmt(series.times[i]),
            _fmt(series.mean[i]),
            _fmt(series.stderr[i]),
            exact,
            _fmt(series.live_fraction[i]),
        ]))
    return "\n".join(lines) + "\n"


def _json_column(values) -> list:
    return [None if not math.isfinite(v) else float(v) for v in values]


def _series_json(series: ObservableSeries, metadata: dict) -> str:
    doc = {
        "metadata": metadata,
        "columns": {
            "t": _json_column(series.times),
            "mean": _json_column(series.mean),
            "stderr": _json_column(series.stderr),
            "exact": None if series.exact is None else _json_column(series.exact),
            "live_fraction": _json_column(series.live_fraction),
        },
    }
    return json.dumps(doc, indent=2) + "\n"


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


def _execute(resolved: dict) -> dict:
    """Run every (method, observable) pair of a resolved config.

    Returns {"outputs": [paths], "series": {(method, obs): ObservableSeries},
    "breakdown_times": {(method, obs): float | None}}.
    """
    params = _params_from_json(resolved["params"])
    stem = resolved["output"]["path"]
    fmt = resolved["output"]["format"]

    runs = []
    for entry in resolved["method"]:
        spec = MethodSpec.of(entry["name"])
        config = _ensemble_from_json(
            resolved["ensemble"], entry["n_trajectories"])
        validate_config(config, spec, params)
        runs.append((spec, config))

    outputs = []
    all_series = {}
    breakdowns = {}
    for spec, config in runs:
        result = run_ensemble(spec, params, config)
        method_breakdowns = {}
        for obs in resolved["observables"]:
            series = observable_series(result, spec, obs)
            t_break = detect_blowup(series)
            all_series[(spec.method, obs)] = series
            breakdowns[(spec.method, obs)] = t_break
            method_breakdowns[obs] = t_break
            path = f"{stem}_{spec.method}_{obs}.{fmt}"
            if fmt == "csv":
                _write_text(path, _series_csv(series))
            else:
                metadata = {
                    "version": __version__,
                    "method": spec.method,
                    "observable": obs,
                    "breakdown_time": t_break,
                    "config": resolved,
                }
                _write_text(path, _series_json(series, metadata))
            outputs.append(path)
        if fmt == "csv":
            sidecar = f"{stem}_{spec.method}.meta.json"
            _write_text(sidecar, json.dumps({
                "version": __version__,
                "method": spec.method,
                "breakdown_times": method_breakdowns,
                "config": resolved,
            }, indent=2) + "\n")
            outputs.append(sidecar)

    return {
        "outputs": outputs,
        "series": all_series,
        "breakdown_times": breakdowns,
    }


def run_preset(name: str, overrides: dict | None = None) -> dict:
    """Execute a shipped preset end to end, writing its output files."""
    return _execute(resolve_config(load_preset(name), overrides))


def run_config(path: str, overrides: dict | None = None) -> dict:
    """Execute a config file end to end, writing its output files."""
    return _execute(resolve_config(load_config_file(path), overrides))


# --------------------------------------------------------------------------
# oracle tables
# --------------------------------------------------------------------------


def oracle_table(params, times, observables) -> dict:
    """Exact values on a time grid: {"t": grid, name: values, ...}.

    ``params`` is an OracleParams; every observable must have a closed
    form.
    """
    times = np.asarray(times, dtype=float)
    bad = [o for o in observables if o not in EXACT_OBSERVABLES]
    if bad:
        raise ConfigError(
            [f"no closed form for {bad}; available: {', '.join(EXACT_OBSERVABLES)}"])
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
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        return start + step * np.arange(count)
    return np.asarray([_time(p) for p in text.split(",") if p.strip()])


def _time(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(
            [f"--times entries must be finite numbers, got {text!r}"])
    return value


def _oracle_command(resolved: dict, times_text: str | None) -> dict:
    params = _params_from_json(resolved["params"])
    ensemble = resolved["ensemble"]
    op = match_schedule(
        params, _number(ensemble.get("N_a0"), "ensemble.N_a0"),
        _number(ensemble.get("N_b0"), "ensemble.N_b0"))
    if op is None:
        raise ConfigError(
            ["no closed form for this coupling schedule; it must be constant "
             "or switched off once"])

    if times_text is not None:
        times = _parse_times(times_text)
    else:
        config = _ensemble_from_json(ensemble, ensemble["n_trajectories"])
        times = build_step_plan(config, params).sample_times

    observables = [o for o in resolved["observables"] if o in EXACT_OBSERVABLES]
    if not observables:
        observables = list(EXACT_OBSERVABLES)
    table = oracle_table(op, times, observables)

    stem = resolved["output"]["path"]
    fmt = resolved["output"]["format"]
    path = f"{stem}_exact.{fmt}"
    if fmt == "csv":
        header = ",".join(["t", *observables])
        lines = [header]
        for i in range(len(times)):
            lines.append(",".join(
                [_fmt(table["t"][i])] + [_fmt(table[o][i]) for o in observables]))
        _write_text(path, "\n".join(lines) + "\n")
    else:
        doc = {
            "metadata": {"version": __version__, "config": resolved},
            "columns": {k: _json_column(v) for k, v in table.items()},
        }
        _write_text(path, json.dumps(doc, indent=2) + "\n")
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            overrides = {
                "seed": args.seed,
                "trajectories": args.trajectories,
                "dt": args.dt,
                "out": args.out,
                "format": args.format,
                "method": args.method,
                "observables": args.observables,
            }
            if args.preset:
                outcome = run_preset(args.preset, overrides)
            else:
                outcome = run_config(args.config, overrides)
            for path in outcome["outputs"]:
                print(path)
            for key, t_break in outcome["breakdown_times"].items():
                if t_break is not None:
                    method, obs = key
                    print(f"note: {method}/{obs} sampling breaks down near "
                          f"t={t_break:g}", file=sys.stderr)
            return 0
        overrides = {
            "out": args.out,
            "format": args.format,
            "observables": args.observables,
        }
        raw = load_preset(args.preset) if args.preset else load_config_file(
            args.config)
        outcome = _oracle_command(resolve_config(raw, overrides), args.times)
        for path in outcome["outputs"]:
            print(path)
        return 0
    except ConfigError as exc:
        for line in exc.violations:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
