#!/usr/bin/env python3
"""The phasesde benchmark: generated workloads through ``cli.run_config``.

Run from the repository root::

    python3 perfbench/run.py --workload fig2_noise --seed 1 --seconds 25 --trace 0

Each workload's config is generated from ``--seed`` and written to
``.perfbench_out/<workload>/``.  Runs go through the public
``phasesde.cli.run_config`` one at a time, as a closed loop from this
single process, with the engine's default worker count.  The loop cycles
through ``SUBSEEDS`` master seeds derived from ``--seed`` and keeps
starting runs until ``--seconds`` have passed and every master seed has
run at least once.  Every run's output files are checked against the
step plan and the closed-form oracle.

``--trace 0`` reports the end-to-end metrics (medians; sample counts are
in the text lines above the result):

* ``setup_s``: package import plus config load, resolve and validation,
  in a fresh process (median of ``SETUP_PROBES`` processes), less the
  time the hypervisor stole from it (see ``steal.py``)
* ``wall_unstolen_s``: one ``run_config`` call, until its last output file
  is written, less the time the hypervisor stole from it (``steal.py``)
* ``peak_rss_mb``: peak resident memory of this process

and prints four figures that stay out of the JSON metrics:

* ``wall_s``: the median call wall time as measured
* ``stolen_share``: the share of the CPUs' time stolen during the loop's
  calls

* ``max_abs_z``: the largest |mean - exact| / stderr over every series with
  a closed form, inside ``stderr_reliable`` and where stderr > 0, as the
  median over the master seeds.  It is deterministic at a fixed seed but
  scatters too much from seed to seed for a bound, so it is a check.
* ``failed_fraction``: ``failed`` / ``attempted``, 0 on a passing run

``--trace 1`` runs the same untraced loop, then one traced run at the first
master seed and one traced ``run_ensemble(..., n_workers=1)`` pass per
method, and reports the per-layer metrics (see ``layer_metrics``).  The
traced run must write the same bytes as the untraced one, and each
single-worker pass must give the same ``sums`` bytes as the default
worker count; a mismatch counts as a failed run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
starts with ``record:`` and holds the full run record: machine, seed,
generated configs, trajectory-substep counts, every run and every metric
with its sample count.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from steal import elapsed, start, unstolen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")

# Master seeds per run, each run at least once.  max_abs_z is a maximum over
# correlated samples and scatters from seed to seed; three seeds give it a
# median and make every run cover more than one noise realisation.
SUBSEEDS = 3
SETUP_PROBES = 5
# Limit on max_abs_z for the exact-mapping methods.  A run takes the maximum
# over a few hundred correlated pulls, and late in fig2_noise, where the
# collapsed X_a is near zero, batch errors have heavy tails.  Over about 80
# master seeds per workload the largest pull was 6.8 (hybrid, X_a, t=0.196).
# The limit catches broken output; a 1% error in the Kerr frequency gives
# pulls of 6 to 10, so finer errors are left to the acceptance tests.
Z_LIMIT = 10.0
EXACT_MAPPING = ("hybrid", "hybrid_truncated", "positive_p")
METHODS = ("hybrid", "hybrid_truncated", "positive_p", "wigner")
ALL_OBSERVABLES = ["X_a", "Y_a", "X_b", "Y_b", "N_a", "N_b", "var_N_a",
                   "var_Y_b", "N_a_Y_b", "C_Na_Yb"]
CSV_HEADER = "t,mean,stderr,exact,live_fraction"

PHYSICS = {
    "fig2": {
        "omega_a": 0.0, "omega_b": 0.0, "chi_a": 1.0, "chi_b": 1.0,
        "coupling": [{"t_end": None, "g": 1.0}],
    },
    "fig6": {
        "omega_a": 0.0, "omega_b": -100.0, "chi_a": 1.0, "chi_b": 1.0,
        "coupling": [{"t_end": 0.1, "g": 1.0}, {"t_end": None, "g": 0.0}],
    },
}

WORKLOADS = {
    # The north-star physics of the roadmap.  The engine is over 95% of
    # wall time and noise draws dominate it; recording and stats are about
    # 1%.  Moves with the noise draw, the kick and the rotation.  16 batches
    # divide 4096 and give the pull check a t distribution with 15 degrees
    # of freedom.
    "fig2_noise": {
        "physics": "fig2",
        "methods": {"hybrid": 4096, "hybrid_truncated": 4096},
        "n_batches": 16, "t_final": 0.2, "sample_interval": 20,
        "observables": ["X_a", "X_b"],
    },
    # Bypasses the noise layer: wigner draws no step noise.  Sampling every
    # step (2501 samples) of all ten observables puts about half of wall
    # time into moment recording, observable_series, detect_blowup, the
    # oracle and CSV writing.  It also steps through a coupling breakpoint.
    # Stats cost grows with batches, so 8 keep that share near half.
    "fig6_dense": {
        "physics": "fig6",
        "methods": {"wigner": 4096},
        "n_batches": 8, "t_final": 0.25, "sample_interval": 1,
        "observables": ALL_OBSERVABLES,
    },
    # The fig2_noise engine used differently: about a third of positive-P
    # lanes blow up and are then stepped as frozen zeros.  Exercises the
    # blow-up event path, live-fraction statistics and breakdown detection.
    "posp_breakdown": {
        "physics": "fig2",
        "methods": {"positive_p": 8192},
        "n_batches": 16, "t_final": 0.2, "sample_interval": 20,
        "observables": ["X_a", "N_a", "var_Y_b"],
    },
}


def make_config(name: str, master_seed: int, stem: str,
                scale: float = 1.0, t_final: float | None = None) -> dict:
    """The run config of workload ``name``, as ``run_config`` reads it."""
    w = WORKLOADS[name]
    methods = [{"name": m,
                "n_trajectories": max(w["n_batches"], int(n * scale))}
               for m, n in w["methods"].items()]
    return {
        "method": methods,
        "params": PHYSICS[w["physics"]],
        "ensemble": {
            "n_trajectories": methods[0]["n_trajectories"],
            "n_batches": w["n_batches"],
            "dt": 1e-4,
            "t_final": w["t_final"] if t_final is None else t_final,
            "sample_interval": w["sample_interval"],
            "master_seed": master_seed,
            "N_a0": 100.0,
            "N_b0": 0.01,
            "blowup_threshold": 1e6,
        },
        "observables": list(w["observables"]),
        "output": {"path": stem, "format": "csv"},
    }


def master_seeds(name: str, seed: int) -> list:
    rng = random.Random(f"phasesde-bench/{name}/{seed}")
    return [rng.randrange(2 ** 32) for _ in range(SUBSEEDS)]


# --------------------------------------------------------------------------
# machine
# --------------------------------------------------------------------------


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_info() -> dict:
    import scipy
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def read_series(path: Path) -> dict:
    """Columns of a series CSV; raises ValueError if it does not parse."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("bad header")
    cols = {"t": [], "mean": [], "stderr": [], "exact": [], "live": []}
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 5:
            raise ValueError(f"bad row {line!r}")
        t, mean, se, exact, live = fields
        cols["t"].append(float(t))
        cols["mean"].append(float(mean))
        cols["stderr"].append(float(se))
        cols["exact"].append(None if exact == "" else float(exact))
        cols["live"].append(float(live))
    return cols


def series_max_z(cols: dict) -> tuple:
    """(max |mean - exact| / stderr, non-finite means) inside stderr_reliable.

    Samples whose stderr is zero, as at t = 0 for a delta-sampled mode,
    have no pull.
    """
    worst, nonfinite = 0.0, 0
    for mean, se, exact, live in zip(cols["mean"], cols["stderr"],
                                     cols["exact"], cols["live"]):
        if live < 1.0:
            break  # stderr_reliable latches off at the first loss
        if not math.isfinite(mean):
            nonfinite += 1
            continue
        if exact is None or se == 0.0:
            continue
        worst = max(worst, abs(mean - exact) / se)
    return worst, nonfinite


def check_outputs(w: dict, stem: str, n_samples: dict) -> dict:
    """Check one run's output files; see ``timed_run`` for the keys."""
    problems, z_by_method = [], {}
    digest = hashlib.sha256()
    for method in w["methods"]:
        files = [Path(f"{stem}_{method}_{obs}.csv") for obs in w["observables"]]
        meta = Path(f"{stem}_{method}.meta.json")
        z_by_method[method] = 0.0
        for path in files + [meta]:
            try:
                digest.update(path.name.encode() + path.read_bytes())
                if path == meta:
                    json.loads(meta.read_text(encoding="utf-8"))
                    continue
                cols = read_series(path)
            except (OSError, ValueError) as exc:
                problems.append(f"{path}: {exc}")
                continue
            if len(cols["t"]) != n_samples[method]:
                problems.append(f"{path}: {len(cols['t'])} samples, step plan "
                                f"has {n_samples[method]}")
            if all(e is None for e in cols["exact"]):
                problems.append(f"{path}: no exact column")
            z, nonfinite = series_max_z(cols)
            if nonfinite:
                problems.append(f"{path}: {nonfinite} non-finite reliable means")
            z_by_method[method] = max(z_by_method[method], z)
        if method in EXACT_MAPPING and z_by_method[method] > Z_LIMIT:
            problems.append(f"{method}: max_abs_z {z_by_method[method]:.3f} "
                            f"above {Z_LIMIT}")
    return {"max_abs_z": max(z_by_method.values()), "z": z_by_method,
            "digest": digest.hexdigest(), "problems": problems}


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------


def output_files(stem: str) -> list:
    return sorted(Path(stem).parent.glob(Path(stem).name + "_*"))


def timed_run(cli, config_path: str, w: dict, stem: str, n_samples: dict,
              call=None) -> dict:
    """One checked ``run_config`` call; ``call`` runs it (default: directly).

    Returns ``wall_s`` and ``stolen_s`` of the call (see
    ``steal.elapsed``); ``max_abs_z`` overall and per method in ``z``; the
    ``digest`` of every output file; and the ``problems`` that make the run
    a failed one.  Earlier outputs are deleted first, so a file the run
    does not write counts as missing.
    """
    for path in output_files(stem):
        path.unlink()
    begin = start()
    try:
        (call or cli.run_config)(config_path)
    except Exception as exc:  # a run that raises is a failed run
        return dict(elapsed(begin), max_abs_z=None, z={}, digest=None,
                    problems=[f"raised {type(exc).__name__}: {exc}"])
    times = elapsed(begin)
    return dict(check_outputs(w, stem, n_samples), **times)


def setup_times(config_path: str) -> list:
    """``steal.elapsed`` of each of ``SETUP_PROBES`` cold set-ups."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(probe), str(SRC), config_path],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def n_values(args, kwargs, result):
    """Units of a span that returns an array: its number of values."""
    return int(np.size(result))


def engine_targets(integrator, dynamics) -> list:
    """Spans inside ``run_ensemble``; chunks run on the worker threads."""
    return [
        (integrator, "_simulate_chunk", "integrator.simulate_chunk", None),
        (integrator, "make_stream", "integrator.make_stream", None),
        (integrator, "sample_wigner_coherent", "representations.init_sample",
         None),
        (integrator, "sample_positive_p_coherent",
         "representations.init_sample", None),
        (integrator, "draw_standard_normals", "representations.noise",
         n_values),
        (dynamics, "hybrid_frequencies", "dynamics.freq", None),
        (dynamics, "positive_p_frequencies", "dynamics.freq", None),
        (dynamics, "wigner_frequencies", "dynamics.freq", None),
    ]


def pipeline_targets(cli, integrator, dynamics, stats, oracle) -> list:
    """Spans of one ``run_config`` call, below its own root span."""
    return [
        (cli, "resolve_config", "cli.resolve_config", None),
        (cli, "run_ensemble", "integrator.run_ensemble", None),
        (cli, "observable_series", "stats.observable_series", None),
        (cli, "detect_blowup", "stats.detect_blowup", None),
        (stats, "observable_estimate_complex", "representations.estimate",
         None),
        (oracle, "exact_series", "oracle.exact_series", n_values),
    ] + engine_targets(integrator, dynamics)


def live_steps(result, plan) -> tuple:
    """(live lane-steps, lane-steps computed) of one ensemble result."""
    blow = result.blowup_times[np.isfinite(result.blowup_times)]
    lost_steps = np.searchsorted(plan.sub_t_end, blow, side="left") + 1
    full = (len(result.blowup_times) - len(blow)) * plan.n_substeps
    return int(full + lost_steps.sum()), len(result.blowup_times) * plan.n_substeps


def trace_phase(modules, w, config_path, stem, n_samples, plans, reference):
    """The traced run and the single-worker passes.

    Returns the runs, each with the ``problems`` that make it a failed one,
    and the raw figures ``layer_metrics`` turns into metrics.
    """
    from spans import Tracer

    cli, integrator, dynamics, stats, oracle = modules
    tracer, kept = Tracer(), []
    run_ensemble = cli.run_ensemble

    def keep(*args, **kwargs):
        t0 = time.perf_counter()
        result = run_ensemble(*args, **kwargs)
        kept.append((result, time.perf_counter() - t0))
        return result

    cli.run_ensemble = keep
    try:
        with warnings.catch_warnings(record=True) as caught, \
                tracer.patched(pipeline_targets(*modules)):
            warnings.simplefilter("always")
            traced = timed_run(cli, config_path, w, stem, n_samples,
                               call=lambda p: tracer.call(
                                   "cli.run_config", cli.run_config, p))
    finally:
        cli.run_ensemble = run_ensemble
    # The package warns with UserWarning (numpy's own are RuntimeWarning).
    stats_warnings = sum(1 for c in caught if c.category is UserWarning)
    if traced["digest"] is not None and traced["digest"] != reference:
        traced["problems"].append(
            "traced output bytes differ from the untraced run")
    traced["mode"] = "traced"
    runs = [traced]

    solo, solo_s = Tracer(), {}
    default_s = {}
    for result, seconds in kept:
        name = result.method.method
        default_s[name] = seconds
        t0 = time.perf_counter()
        with solo.patched(engine_targets(integrator, dynamics)):
            one = solo.call("integrator.run_ensemble", integrator.run_ensemble,
                            result.method, result.params, result.config,
                            n_workers=1)
        solo_s[name] = time.perf_counter() - t0
        same = (one.sums.tobytes() == result.sums.tobytes()
                and one.live_counts.tobytes() == result.live_counts.tobytes())
        runs.append({"mode": f"n_workers=1 {name}", "wall_s": solo_s[name],
                     "problems": [] if same else [
                         f"{name}: sums differ between n_workers=1 and the "
                         "default worker count"]})

    lanes = [live_steps(r, plans[r.method.method]) for r, _ in kept]
    n_traj = sum(len(r.blowup_times) for r, _ in kept)
    lost = sum(int(np.isfinite(r.blowup_times).sum()) for r, _ in kept)
    info = {
        "totals": tracer.totals(), "solo_totals": solo.totals(),
        "default_s": default_s, "solo_s": solo_s,
        "lost_fraction": lost / max(n_traj, 1),
        "live_step_share": (sum(a for a, _ in lanes)
                            / max(sum(b for _, b in lanes), 1)),
        "stats_warnings": stats_warnings,
        "bytes_written": sum(p.stat().st_size for p in output_files(stem)),
        "traced_wall_s": traced["wall_s"],
    }
    return runs, info


def layer_metrics(info: dict, traj_substeps: dict,
                  untraced_median: float) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    tot, solo = info["totals"], info["solo_totals"]
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "units": 0}

    def span(table, name):
        return table.get(name, zero)

    noise = span(tot, "representations.noise")
    m = {}
    for method in METHODS:
        steps = traj_substeps.get(method)
        # Methods the workload does not run read 0.
        m[f"integrator.ns_per_traj_step.{method}"] = (
            info["default_s"].get(method, 0.0) / steps * 1e9 if steps else 0.0,
            "ns")
        m[f"integrator.ns_per_traj_step_1w.{method}"] = (
            info["solo_s"].get(method, 0.0) / steps * 1e9 if steps else 0.0,
            "ns")
    default_total = sum(info["default_s"].values())
    m["integrator.parallel_speedup"] = (
        sum(info["solo_s"].values()) / default_total if default_total else 0.0,
        "x")
    m["integrator.self_s"] = (
        span(solo, "integrator.run_ensemble")["self_s"]
        + span(solo, "integrator.simulate_chunk")["self_s"], "s")
    m["integrator.streams"] = (span(tot, "integrator.make_stream")["calls"],
                               "count")
    m["integrator.streams_s"] = (span(tot, "integrator.make_stream")["busy_s"],
                                 "s")
    m["integrator.lost_fraction"] = (info["lost_fraction"], "fraction")
    m["integrator.live_step_share"] = (info["live_step_share"], "fraction")
    m["representations.noise_calls"] = (noise["calls"], "count")
    m["representations.normals"] = (noise["units"], "count")
    m["representations.noise_s"] = (noise["busy_s"], "s")
    m["representations.ns_per_normal"] = (
        noise["busy_s"] / noise["units"] * 1e9 if noise["units"] else 0.0, "ns")
    init = span(tot, "representations.init_sample")
    m["representations.init_sample_calls"] = (init["calls"], "count")
    m["representations.init_sample_s"] = (init["busy_s"], "s")
    est = span(tot, "representations.estimate")
    m["representations.estimate_calls"] = (est["calls"], "count")
    m["representations.estimate_s"] = (est["busy_s"], "s")
    freq = span(tot, "dynamics.freq")
    m["dynamics.freq_calls"] = (freq["calls"], "count")
    m["dynamics.freq_s"] = (freq["busy_s"], "s")
    series = span(tot, "stats.observable_series")
    blowup = span(tot, "stats.detect_blowup")
    m["stats.observable_series_s"] = (series["busy_s"], "s")
    m["stats.self_s"] = (series["self_s"] + blowup["self_s"], "s")
    m["stats.detect_blowup_s"] = (blowup["busy_s"], "s")
    m["stats.warnings"] = (info["stats_warnings"], "count")
    exact = span(tot, "oracle.exact_series")
    m["oracle.exact_series_s"] = (exact["busy_s"], "s")
    m["oracle.exact_points"] = (exact["units"], "count")
    m["cli.resolve_s"] = (span(tot, "cli.resolve_config")["busy_s"], "s")
    m["cli.self_s"] = (span(tot, "cli.run_config")["self_s"], "s")
    m["cli.bytes_written"] = (info["bytes_written"], "bytes")
    m["trace.overhead_s"] = (info["traced_wall_s"] - untraced_median, "s")
    return m


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "phasesde" / "__init__.py").is_file():
        print(f"error: no phasesde package under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from phasesde import cli, dynamics, integrator, oracle, stats
    modules = (cli, integrator, dynamics, stats, oracle)

    name = args.workload
    w = WORKLOADS[name]
    workdir = OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    stem = str(workdir / name)
    seeds = master_seeds(name, args.seed)
    configs, paths = [], []
    for k, ms in enumerate(seeds):
        cfg = make_config(name, ms, stem)
        path = workdir / f"config_{k}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        configs.append(cfg)
        paths.append(str(path))

    params = cli._params_from_json(configs[0]["params"])
    plans = {}
    for entry in configs[0]["method"]:
        ens = cli._ensemble_from_json(configs[0]["ensemble"],
                                      entry["n_trajectories"])
        plans[entry["name"]] = integrator.build_step_plan(ens, params)
    n_samples = {m: p.n_samples for m, p in plans.items()}
    traj_substeps = {m: w["methods"][m] * plans[m].n_substeps
                     for m in w["methods"]}

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    machine = machine_info()
    print("machine " + json.dumps(machine))
    print("traj_substeps " + json.dumps(traj_substeps))

    setup = [] if args.trace else setup_times(paths[0])

    # Warm-up at a small size: lazy imports and first-call costs are paid
    # here, not in the timed loop.
    warm = workdir / "warmup.json"
    warm.write_text(json.dumps(make_config(
        name, seeds[0], str(workdir / "warmup"), scale=1 / 256,
        t_final=0.01)), encoding="utf-8")
    cli.run_config(str(warm))

    runs, by_seed = [], {}
    t_start = time.perf_counter()
    while len(runs) < SUBSEEDS or time.perf_counter() - t_start < args.seconds:
        k = len(runs) % SUBSEEDS
        run = timed_run(cli, paths[k], w, stem, n_samples)
        run["mode"] = f"untraced seed#{k}"
        if k in by_seed and run["digest"] != by_seed[k]["digest"]:
            run["problems"].append(f"output bytes differ from the earlier run "
                                   f"at master seed {seeds[k]}")
        by_seed.setdefault(k, run)
        runs.append(run)
        print(f"run {len(runs) - 1} {run['mode']}  wall_s {run['wall_s']:.4f}"
              f"  max_abs_z {run['max_abs_z']}"
              f"  {'ok' if not run['problems'] else run['problems']}")
    timed = [r for r in runs if not r["problems"]] or runs
    wall_median = statistics.median(r["wall_s"] for r in timed)
    cpus = os.cpu_count() or 1
    stolen_share = (sum(r["stolen_s"] for r in timed)
                    / (cpus * sum(r["wall_s"] for r in timed)))

    metrics, samples = {}, {}
    if args.trace:
        # The traced run rewrites the outputs of master seed 0.
        traced_runs, info = trace_phase(modules, w, paths[0], stem, n_samples,
                                        plans, by_seed[0]["digest"])
        for r in traced_runs:
            print(f"run {r['mode']}  wall_s {r['wall_s']:.4f}  "
                  f"{'ok' if not r['problems'] else r['problems']}")
        runs += traced_runs
        for key, (value, unit) in layer_metrics(info, traj_substeps,
                                                wall_median).items():
            metrics[key] = {"value": value, "unit": unit}
            samples[key] = 1
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for key, value, unit, n in (
                # The set-up probe runs one thread; the engine's default
                # worker count keeps every CPU busy.
                ("setup_s", statistics.median(unstolen(e, 1) for e in setup),
                 "s", len(setup)),
                ("wall_unstolen_s", statistics.median(
                    unstolen(r, cpus) for r in timed), "s", len(timed)),
                ("peak_rss_mb", rss_mb, "MB", 1)):
            metrics[key] = {"value": value, "unit": unit}
            samples[key] = n

    attempted = len(runs)
    failed = sum(1 for r in runs if r["problems"])
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']} (n={samples[key]})")
    print(f"wall_s = {wall_median:.6g} s (n={len(timed)}; as measured)")
    print(f"stolen_share = {stolen_share:.4g} fraction (n={len(timed)})")
    zs = [r["max_abs_z"] for r in by_seed.values() if r["max_abs_z"] is not None]
    if zs:
        print(f"max_abs_z = {statistics.median(zs):.6g} sigma (n={len(zs)}; "
              f"checked against {Z_LIMIT} for {', '.join(EXACT_MAPPING)})")
    print(f"failed_fraction = {failed / attempted:.6g} fraction "
          f"(n={attempted}; {failed} failed)")

    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "master_seeds": seeds,
        "configs": configs, "traj_substeps": traj_substeps,
        "setup_s": setup,
        "runs": [{k: r.get(k) for k in ("mode", "wall_s", "stolen_s",
                                        "max_abs_z", "z", "problems")}
                 for r in runs],
        "metrics": {k: dict(m, samples=samples[k]) for k, m in metrics.items()},
    }
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
