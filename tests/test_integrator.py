"""Step plans, the single-step map, and ensemble integration."""
import copy
import ctypes
import dataclasses
import logging
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from phasesde import (
    ConfigError,
    CouplingSchedule,
    EnsembleConfig,
    MethodSpec,
    PhasePoint,
    SystemParams,
    build_step_plan,
    run_ensemble,
)
from phasesde import _kernel, dynamics, integrator
from phasesde.core import METHOD_NAMES, MONOMIALS, validate_config
from phasesde.representations import draw_standard_normals, ndtri

APA = MONOMIALS.index("alpha_plus_alpha")


def kerr(g=1.0, omega_a=0.0, omega_b=0.0, chi_a=1.0, chi_b=1.0):
    return SystemParams(omega_a, omega_b, chi_a, chi_b,
                        CouplingSchedule.constant(g))


def config(**kw):
    base = dict(n_trajectories=64, dt=1e-3, t_final=0.05, N_a0=1.0,
                N_b0=0.25, n_batches=8, sample_interval=10, master_seed=5)
    base.update(kw)
    return EnsembleConfig(**base)


def trajectory(name, params, cfg, index=0, noise_free=False, native=None):
    """Trajectory ``index`` run alone, as a one-lane chunk.

    Returns its monomials at each sample (NaN once it is dead), its live
    flags and its blow-up time (NaN if it lives).  ``native`` defaults to
    the engine ``run_ensemble`` uses; False is the numpy loop.
    """
    if native is None:
        native = integrator._load_native()
    part = integrator._simulate_chunk(
        index, 1, MethodSpec.of(name), params, cfg,
        build_step_plan(cfg, params), noise_free, native=native)
    batch = index % cfg.n_batches
    live = part["live_counts"][:, batch] > 0
    monomials = np.where(live[:, None], part["sums"][:, batch], np.nan + 0j)
    return monomials, live, part["blowup_times"][0]


# ---------------------------------------------------------------------------
# step plan
# ---------------------------------------------------------------------------


def test_plan_uniform_grid():
    plan = build_step_plan(config(dt=1e-4, t_final=0.02, sample_interval=20),
                           kerr())
    assert plan.n_substeps == 200
    np.testing.assert_allclose(plan.sub_dt, 1e-4)
    np.testing.assert_allclose(
        plan.sample_times, np.linspace(0.0, 0.02, 11), atol=1e-15)
    # t=0 ends no segment
    np.testing.assert_array_equal(plan.ends, np.arange(20, 201, 20))


def test_plan_splits_at_off_grid_breakpoint():
    params = SystemParams(0.0, -100.0, 1.0, 1.0,
                          CouplingSchedule.switched(1.0, 0.1))
    cfg = config(dt=3e-5, t_final=0.2, sample_interval=1000)
    plan = build_step_plan(cfg, params)
    n_nominal = round(0.2 / 3e-5)
    assert plan.n_substeps == n_nominal + 1
    # one auxiliary substep ends exactly on the switch time
    assert np.any(plan.sub_t_end == 0.1)
    # the coupling value honors the schedule on both sides
    before = plan.sub_g[plan.sub_t_end <= 0.1 + 1e-12]
    after = plan.sub_g[plan.sub_t_end > 0.1 + 1e-12]
    assert np.all(before == 1.0) and np.all(after == 0.0)
    # auxiliary substeps do not disturb the sampling cadence
    expected_samples = [0.0, 0.03, 0.06, 0.09, 0.12, 0.15, 0.18, 0.2]
    np.testing.assert_allclose(plan.sample_times, expected_samples, atol=1e-12)


def test_plan_breakpoint_on_grid_needs_no_split():
    params = SystemParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.switched(1.0, 0.01))
    plan = build_step_plan(config(dt=1e-4, t_final=0.02, sample_interval=100),
                           params)
    assert plan.n_substeps == 200
    assert np.any(np.abs(plan.sub_t_end - 0.01) < 1e-12)


def test_plan_keeps_partial_tail_step():
    plan = build_step_plan(config(dt=1e-4, t_final=2.5e-4, sample_interval=1),
                           kerr())
    assert plan.n_substeps == 3
    assert plan.sub_dt[-1] == pytest.approx(5e-5)
    assert plan.sample_times[-1] == pytest.approx(2.5e-4)
    np.testing.assert_array_equal(plan.ends, [1, 2, 3])


def test_plan_zero_duration_is_a_single_sample():
    plan = build_step_plan(config(t_final=0.0), kerr())
    assert plan.n_substeps == 0
    np.testing.assert_array_equal(plan.sample_times, [0.0])


# ---------------------------------------------------------------------------
# the engine's step against dynamics.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_engine_step_matches_drift_and_noise_factor(name):
    """The engine's kick and rotation give A(p) dt + B(p) xi sqrt(dt).

    At random phase points, -i F x from the frequency table the engine
    reads must equal the drift of dynamics.py.  Then one substep of the
    numpy loop runs, and its exact rotation is undone: the kick's linear
    term (for hybrid_truncated, the log of its exponential a pair) must
    equal B(p) xi sqrt(dt), with xi the normals each lane's stream gives
    for that substep.  It is the second substep, from sample 1 to sample
    2, so that b is not real.
    """
    g = 0.6
    params = SystemParams(0.3, -0.7, 1.1, 0.9, CouplingSchedule.constant(g))
    rng = np.random.default_rng(17)
    a, ap, b, bp = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
    if name == "wigner":
        ap, bp = np.conj(a), np.conj(b)
    state = np.array([a, ap, b, bp])
    points = [PhasePoint(*state[:, i]) for i in range(state.shape[1])]

    f_a, f_b = dynamics.FREQUENCIES[name](a, ap, b, bp, params, g)
    engine_drift = np.array([-1j * f_a * a, 1j * f_a * ap,
                             -1j * f_b * b, 1j * f_b * bp])
    drift = {
        "hybrid": lambda p: dynamics.hybrid_drift(p, params, g),
        "hybrid_truncated": lambda p: dynamics._rotation_drift(
            "hybrid_truncated", p, params, g),
        "positive_p": lambda p: dynamics.positive_p_drift(p, params, g),
        "wigner": lambda p: dynamics.wigner_truncated(p, params, g),
    }[name]
    expected = np.array([drift(p) for p in points]).T
    np.testing.assert_allclose(engine_drift, expected, rtol=1e-13)

    if name == "wigner":
        assert name not in dynamics.NOISE  # the noise factor is zero
        return
    cfg = config(n_trajectories=6, n_batches=6, t_final=2e-3,
                 sample_interval=1)
    method = MethodSpec.of(name)
    plan = build_step_plan(cfg, params)
    part = integrator._simulate_chunk(0, 6, method, params, cfg, plan,
                                      native=False)
    # One lane per batch, so each batch's sums are that lane's monomials.
    before, after = part["sums"][1, :, :4].T, part["sums"][2, :, :4].T
    assert (before[2].imag != 0).all()
    gens = integrator._initial_arrays(0, 6, method, cfg)[-1]
    xi = draw_standard_normals(gens, 8)[:, 4:]
    f_a, f_b = dynamics.FREQUENCIES[name](*before, params, g)
    rot_a, rot_b = np.exp(-1j * f_a * cfg.dt), np.exp(-1j * f_b * cfg.dt)
    mid = np.array([after[0] / rot_a, after[1] * rot_a,
                    after[2] / rot_b, after[3] * rot_b])
    linear = mid - before
    if name == "hybrid_truncated":
        linear[:2] = before[:2] * np.log(mid[:2] / before[:2])
    factor = (dynamics.positive_p_noise_factor if name == "positive_p"
              else dynamics.hybrid_noise_factor)
    expected = np.array([factor(PhasePoint(*before[:, i]), params, g) @ xi[i]
                         for i in range(6)]).T * math.sqrt(cfg.dt)
    np.testing.assert_allclose(linear, expected, rtol=1e-9)


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------


def test_noise_free_hybrid_conserves_occupation():
    monomials, live, _ = trajectory(
        "hybrid", kerr(), config(n_trajectories=1, n_batches=1, t_final=0.5,
                                 N_a0=4.0), noise_free=True)
    apa = monomials[:, APA].real
    assert np.all(live)
    np.testing.assert_allclose(apa, apa[0], rtol=1e-12)
    assert np.abs(monomials[:, APA].imag).max() < 1e-12


def test_noise_free_hybrid_equals_further_truncated():
    """Without noise both b occupations stay real, so the flows coincide."""
    cfg = config(t_final=0.2, N_a0=2.0, N_b0=1.0)
    full, trunc = (trajectory(name, kerr(), cfg, index=3, noise_free=True)[0]
                   for name in ("hybrid", "hybrid_truncated"))
    np.testing.assert_allclose(full, trunc, rtol=1e-12, atol=1e-13)


def test_ensemble_is_deterministic_across_worker_counts(monkeypatch):
    """Same bytes for 1, 2 and 4 workers over several chunks, with no
    process forked, from threads that run at the same time.

    16-lane chunks give 4 chunks per run, so the worker pool and the
    ordered reduce both run; the positive-P case loses lanes.  Each
    multi-worker run starts on its own thread, beside the others and
    before the engine has loaded, and its sums, live counts, blow-up
    times and gauge drift must equal the single-worker run's, byte for
    byte.  Threads switch often, and outnumber the CPUs.
    """
    monkeypatch.setattr(integrator, "CHUNK_SIZE", 16)
    monkeypatch.setattr(integrator, "_native", None)

    def no_fork():
        raise AssertionError("the engine forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    cases = [
        ("hybrid", config(n_trajectories=64)),
        ("positive_p", config(n_trajectories=64, dt=1e-4, t_final=0.15,
                              N_a0=100.0, N_b0=0.01, sample_interval=50,
                              master_seed=14)),
    ]
    runs = [(name, cfg, w) for name, cfg in cases for w in (2, 4)]
    together = threading.Barrier(len(runs))

    def threaded(name, cfg, w):
        together.wait(timeout=60)
        return run_bytes(name, kerr(), cfg, n_workers=w,
                         record_gauge_drift=True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(runs)) as pool:
            futures = [pool.submit(threaded, *run) for run in runs]
            for (name, cfg, w), future in zip(runs, futures):
                one = run_bytes(name, kerr(), cfg, n_workers=1,
                                record_gauge_drift=True)
                if name == "positive_p":
                    assert np.isfinite(np.frombuffer(one[2])).any()
                assert future.result(timeout=300) == one, (name, w)
    finally:
        sys.setswitchinterval(interval)


def test_numpy_loop_runs_a_default_run_on_one_thread(monkeypatch):
    """On the numpy loop, whose threads only contend for the GIL, a run
    of several chunks with the default worker count starts no thread pool
    and gives the single-worker bytes; an explicit count still starts one.
    """
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(integrator, "CHUNK_SIZE", 16)
    monkeypatch.setattr(integrator, "_native", False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    cfg = config(n_trajectories=32)
    assert run_bytes("hybrid", kerr(), cfg) == run_bytes(
        "hybrid", kerr(), cfg, n_workers=1)
    with pytest.raises(AssertionError, match="thread pool"):
        run_ensemble("hybrid", kerr(), cfg, n_workers=2)


def test_ensemble_depends_on_master_seed():
    a = run_ensemble("hybrid", kerr(), config(master_seed=5))
    b = run_ensemble("hybrid", kerr(), config(master_seed=6))
    assert not np.array_equal(a.sums, b.sums)


@pytest.mark.parametrize("n_workers", [0, -2, 2.5, True, "2"])
def test_ensemble_rejects_a_bad_worker_count(n_workers):
    with pytest.raises(ConfigError, match="n_workers"):
        run_ensemble("hybrid", kerr(), config(), n_workers=n_workers)


def test_ensemble_sums_match_brute_force_accumulation():
    """Bit-identical to summing single-trajectory runs batch by batch."""
    cfg = config(n_trajectories=100, n_batches=10, master_seed=12)
    ens = run_ensemble("hybrid", kerr(), cfg)
    manual = np.zeros_like(ens.sums)
    counts = np.zeros_like(ens.live_counts)
    for i in range(cfg.n_trajectories):
        monomials, live, _ = trajectory("hybrid", kerr(), cfg, index=i)
        batch = i % cfg.n_batches
        manual[live, batch, :] += monomials[live]
        counts[live, batch] += 1
    assert np.array_equal(counts, ens.live_counts)
    assert np.array_equal(manual, ens.sums)


def test_multi_chunk_sums_match_brute_force_accumulation(monkeypatch):
    """Chunks at every batch offset, and a ragged last one, losing lanes.

    Chunks of 16, 16, 16 and 3 lanes over 3 batches start at batch offsets
    0, 1, 2 and 0.  The reference sums each chunk's single-trajectory
    monomials in lane order from zero, then adds the chunk partials in
    chunk order.
    """
    monkeypatch.setattr(integrator, "CHUNK_SIZE", 16)
    cfg = config(n_trajectories=51, n_batches=3, N_a0=100.0, N_b0=0.01,
                 t_final=0.1, sample_interval=5, master_seed=17,
                 blowup_threshold=3.0)
    ens = run_ensemble("positive_p", kerr(), cfg)
    assert ens.live_fraction[1] == 1.0 > ens.live_fraction[-1] > 0.0

    manual = counts = None
    for lo in range(0, cfg.n_trajectories, 16):
        part = np.zeros_like(ens.sums)
        part_counts = np.zeros_like(ens.live_counts)
        for i in range(lo, min(lo + 16, cfg.n_trajectories)):
            monomials, live, _ = trajectory("positive_p", kerr(), cfg,
                                            index=i)
            part[live, i % 3, :] += monomials[live]
            part_counts[live, i % 3] += 1
        if manual is None:
            manual, counts = part, part_counts
        else:
            manual += part
            counts += part_counts
    assert counts.tobytes() == ens.live_counts.tobytes()
    assert manual.tobytes() == ens.sums.tobytes()


def test_halving_dt_moves_means_much_less_than_noise():
    """Split-step weak error at dt=2e-4 is far below the sampling error."""
    from phasesde.stats import observable_series

    base = dict(n_trajectories=2000, t_final=0.1, N_a0=100.0, N_b0=0.01,
                n_batches=10, sample_interval=500, master_seed=31)
    coarse = run_ensemble("hybrid", kerr(), EnsembleConfig(dt=2e-4, **base))
    fine = run_ensemble("hybrid", kerr(), EnsembleConfig(dt=1e-4, **base))
    s_coarse = observable_series(coarse, name="X_a")
    s_fine = observable_series(fine, name="X_a")
    diff = abs(s_coarse.mean[-1] - s_fine.mean[-1])
    assert diff < s_coarse.stderr[-1]


def test_live_fraction_is_monotone_under_breakdown():
    cfg = EnsembleConfig(n_trajectories=200, dt=1e-4, t_final=0.15,
                         N_a0=100.0, N_b0=0.01, n_batches=10,
                         sample_interval=50, master_seed=14)
    res = run_ensemble("positive_p", kerr(), cfg)
    assert res.live_fraction[0] == 1.0
    assert np.all(np.diff(res.live_fraction) <= 0.0)
    # this regime destroys positive-P trajectories quickly
    assert res.live_fraction[-1] < 1.0
    dead = np.isfinite(res.blowup_times)
    assert dead.any()
    assert np.all(res.blowup_times[dead] <= 0.15 + 1e-12)


def test_wigner_flow_conserves_sampled_occupation():
    monomials, _, _ = trajectory(
        "wigner", kerr(), config(n_trajectories=1, n_batches=1, dt=1e-3,
                                 t_final=2.0, sample_interval=100, N_a0=4.0))
    apa = monomials[:, APA].real
    assert np.abs(apa / apa[0] - 1.0).max() < 1e-9


def test_tiny_threshold_kills_everything_but_the_initial_sample():
    cfg = config(blowup_threshold=1e-3)
    res = run_ensemble("hybrid", kerr(), cfg)
    assert res.live_fraction[0] == 1.0
    assert res.live_fraction[-1] == 0.0
    assert np.all(np.isfinite(res.blowup_times))
    means = res.moment_means()
    assert all(np.isnan(np.real(v[-1])).all() for v in means.values())


def test_gauge_drift_recording():
    cfg = config(n_trajectories=16, n_batches=4)
    plain = run_ensemble("hybrid", kerr(), cfg)
    assert plain.gauge_drift is None
    tracked = run_ensemble("hybrid", kerr(), cfg, record_gauge_drift=True)
    assert tracked.gauge_drift is not None
    assert tracked.gauge_drift.shape == (16,)
    assert np.all(tracked.gauge_drift >= 0.0)
    assert np.all(np.isfinite(tracked.gauge_drift))


def test_unknown_stepper_and_method_are_rejected():
    """Every method runs the one split-step kernel; there is no stepper."""
    with pytest.raises(TypeError):
        run_ensemble("hybrid", kerr(), config(), stepper="euler")
    with pytest.raises(ValueError):
        run_ensemble("heun", kerr(), config())


def test_euler_stepper_through_the_ensemble_api():
    """A positive-P linear oscillator through the ensemble API.

    The name predates the split-step kernel, which replaced the Euler
    stepper; with no Kerr terms and no coupling it draws no noise and
    rotates alpha by exactly exp(-i omega t).
    """
    from phasesde.stats import observable_series

    params = SystemParams(1.0, 0.0, 0.0, 0.0, CouplingSchedule.constant(0.0))
    cfg = EnsembleConfig(n_trajectories=100, dt=1e-4, t_final=0.1, N_a0=1.0,
                         N_b0=0.0, n_batches=10, sample_interval=200,
                         master_seed=21)
    res = run_ensemble("positive_p", params, cfg)
    series = observable_series(res, name="X_a")
    assert series.mean[-1] == pytest.approx(math.cos(0.1), abs=1e-3)


def test_switched_coupling_tracks_the_exact_curve():
    from phasesde.stats import observable_series

    params = SystemParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.switched(1.0, 0.1))
    cfg = EnsembleConfig(n_trajectories=800, dt=1e-3, t_final=0.2, N_a0=1.0,
                         N_b0=0.25, n_batches=10, sample_interval=20,
                         master_seed=33)
    res = run_ensemble("hybrid", params, cfg)
    series = observable_series(res, name="X_b")
    assert series.exact is not None
    err = np.abs(series.mean - series.exact)
    assert np.all(err <= np.maximum(4.0 * series.stderr, 0.01))


def test_positive_p_factors_follow_the_coupling_schedule():
    """One factor per substep, equal to the factor of that substep's g."""
    params = SystemParams(0.0, 0.0, 1.0, 0.5, CouplingSchedule(
        ((0.01, 1.0), (0.02, 0.7), (math.inf, 1.0))))
    plan = build_step_plan(config(t_final=0.03), params)
    F = dynamics.noise_coefficients("positive_p", params, plan.sub_g)["F"]
    expected = np.array([dynamics.positive_p_mode_factor(1.0, 0.5, g)
                         for g in plan.sub_g])
    assert F.shape == (plan.n_substeps, 2, 2)
    assert F.tobytes() == expected.tobytes()
    assert set(plan.sub_g) == {1.0, 0.7}


# ---------------------------------------------------------------------------
# native kernel against the numpy loop
# ---------------------------------------------------------------------------


@pytest.fixture
def native(monkeypatch):
    """The loaded native kernel; the numpy loop is restored afterwards.

    Skips where no kernel loads, or on a CPU without FMA, whose numpy
    loops round differently from the kernel; anywhere else a kernel that
    fails the probe is a failure.
    """
    monkeypatch.setattr(integrator, "_native", None)
    kernel = integrator._load_native()
    if not kernel:
        if _kernel.load() is None:
            pytest.skip("the native kernel does not load (no gcc or a "
                        "failed build); runs use the numpy loop")
        if "-mfma" not in _kernel._flags():
            pytest.skip("no FMA on this CPU: numpy's unfused loops differ "
                        "from the kernel, so runs use the numpy loop")
        pytest.fail("the native kernel loaded but differs from the numpy "
                    "loop on the probe")
    return kernel


def run_bytes(*args, **kwargs):
    res = run_ensemble(*args, **kwargs)
    gauge = b"" if res.gauge_drift is None else res.gauge_drift.tobytes()
    return (res.sums.tobytes(), res.live_counts.tobytes(),
            res.blowup_times.tobytes(), gauge)


NATIVE_SCHEDULES = {
    "constant": CouplingSchedule.constant(1.0),
    # breakpoint off the dt grid: a shortened substep lands on it
    "switch": CouplingSchedule(((0.01234, 1.0), (math.inf, 0.6))),
}


@pytest.mark.parametrize("schedule", sorted(NATIVE_SCHEDULES))
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_kernel_gives_the_numpy_bytes(native, monkeypatch, name,
                                             schedule):
    """Same sums, live counts, blow-up times and gauge drift, bit for bit.

    Over plain, noise-free, gauge-recording and lane-losing runs, with one
    chunk or several 16-lane chunks, on one or two workers.
    """
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES[schedule])
    base = dict(n_trajectories=48, dt=1e-3, t_final=0.0305, N_a0=4.0,
                N_b0=0.25, n_batches=3, sample_interval=7, master_seed=23)
    variants = {
        "plain": ({}, {}),
        "noise_free": ({}, {"noise_free": True}),
        "gauge": ({}, {"record_gauge_drift": True}),
        "lossy": ({"blowup_threshold": 1.05}, {"record_gauge_drift": True}),
    }
    for chunk in (2048, 16):
        monkeypatch.setattr(integrator, "CHUNK_SIZE", chunk)
        for variant, (cfg_kw, run_kw) in variants.items():
            cfg = EnsembleConfig(**{**base, **cfg_kw})
            for workers in (1, 2):
                monkeypatch.setattr(integrator, "_native", native)
                fast = run_bytes(name, params, cfg, n_workers=workers,
                                 **run_kw)
                monkeypatch.setattr(integrator, "_native", False)
                ref = run_bytes(name, params, cfg, n_workers=workers,
                                **run_kw)
                assert fast == ref, (variant, chunk, workers)
            if variant == "lossy":
                blow = np.frombuffer(ref[2])
                assert 0 < np.isfinite(blow).sum() < len(blow)
                if name != "wigner":  # wigner conserves |alpha|
                    assert len(set(blow[np.isfinite(blow)])) > 1


def trajectory_bytes(*args, **kwargs):
    """The bytes of what ``trajectory`` returns."""
    return tuple(v.tobytes() for v in trajectory(*args, **kwargs))


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_streams_match_numpy_at_extreme_keys(native, name, seed):
    """Both Philox key words at their extremes, index words above 2**32."""
    cfg = config(master_seed=seed, n_batches=4, t_final=0.03,
                 sample_interval=7)
    for index in (2 ** 32 + 7, 2 ** 64 - 1):
        fast, ref = (trajectory_bytes(name, kerr(), cfg, index=index,
                                      native=kernel)
                     for kernel in (native, False))
        assert fast == ref, index


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_samples_complex_amplitudes_like_numpy(native, name):
    """Wigner samples are complex; here they lie around occupations whose
    square roots are inexact, in one trajectory and in a chunk off batch 0."""
    cfg = config(n_batches=4, t_final=0.03, sample_interval=7,
                 master_seed=31, N_a0=4.25, N_b0=0.26)
    fast, ref = (trajectory_bytes(name, kerr(), cfg, index=5, native=kernel)
                 for kernel in (native, False))
    assert fast == ref

    # About 2.58, near the 2.06 of sqrt(N_a0).
    cfg = dataclasses.replace(cfg, blowup_threshold=1.25)
    plan = build_step_plan(cfg, kerr())
    fast, ref = ({k: v.tobytes() for k, v in integrator._simulate_chunk(
        7, 20, MethodSpec.of(name), kerr(), cfg, plan, record_gauge=True,
        native=kernel).items()} for kernel in (native, False))
    assert fast == ref


def largest_accepted(bound, scale):
    """The largest float x with x * scale below ``bound``."""
    x = bound / scale
    while x * scale >= bound:
        x = np.nextafter(x, 0.0)
    while np.nextafter(x, math.inf) * scale < bound:
        x = np.nextafter(x, math.inf)
    return x


def test_native_gives_the_numpy_bytes_at_the_largest_accepted_amplitudes(
        native, monkeypatch):
    """Configs may take a chunk's recorded amplitudes up to just below
    2**200, and there both engines record the same bytes, without a
    warning, in one ``_simulate_chunk`` call each.

    At the largest blow-up threshold a config with N_a0 = 100 may have,
    positive-P lanes live on past 2**199 in some component.  At the
    largest N_a0 and N_b0 a config may have, every method starts its lanes
    just below 2**199.  One step past either bound is a ConfigError.
    """
    engines, simulate = [], integrator._simulate_chunk

    def spy(*args, native, **kwargs):
        engines.append(native)
        return simulate(*args, native=native, **kwargs)

    monkeypatch.setattr(integrator, "_simulate_chunk", spy)
    threshold = largest_accepted(2.0 ** 200, 10.0)  # sqrt(N_a0) = 10
    top = largest_accepted(2.0 ** 398, 1.0)
    lanes = EnsembleConfig(n_trajectories=16, dt=1e-3, t_final=1.0,
                           N_a0=100.0, N_b0=0.01, n_batches=16,
                           sample_interval=1, master_seed=0,
                           blowup_threshold=threshold)
    start = dataclasses.replace(lanes, t_final=0.01, N_a0=top, N_b0=top,
                                blowup_threshold=1.0)
    # Each run, and the least its largest recorded amplitude reaches.
    runs = [("positive_p", lanes, 2.0 ** 199)] + [
        (name, start, 2.0 ** 198) for name in METHOD_NAMES]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for name, cfg, least in runs:
            engines.clear()
            out = []
            for kernel in (native, False):
                monkeypatch.setattr(integrator, "_native", kernel)
                out.append(run_bytes(name, kerr(), cfg,
                                     record_gauge_drift=True))
            assert out[0] == out[1], name
            assert engines == [native, False], name
            sums = np.frombuffer(out[1][0], dtype=complex)
            assert np.isfinite(sums).all()
            live = np.frombuffer(out[1][1], dtype=np.int64) > 0
            amplitudes = sums.reshape(len(live), -1)[live, :4]
            largest = max(np.abs(amplitudes.real).max(),
                          np.abs(amplitudes.imag).max())
            assert least <= largest < 2.0 ** 200, name
    assert [str(c.message) for c in caught] == []
    past = {"blowup_threshold": np.nextafter(threshold, math.inf),
            "N_a0": np.nextafter(top, math.inf),
            "N_b0": np.nextafter(top, math.inf)}
    for field, value in past.items():
        base = lanes if field == "blowup_threshold" else start
        with pytest.raises(ConfigError, match=field):
            run_ensemble("hybrid", kerr(),
                         dataclasses.replace(base, **{field: value}))


@pytest.mark.parametrize("gamma", [math.nan, math.inf],
                         ids=["nan_re", "inf_re"])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_non_finite_amplitude_dies_like_numpy(native, monkeypatch,
                                                      name, gamma):
    """A non-finite coherent start kills the lane at the first substep.

    No validated config gives one, so the start is patched in where both
    engines read it.  The kernel kills the lane itself, with the numpy
    loop's live counts, blow-up time and later records.
    Record 0 holds the non-finite start, whose nan bits are not pinned:
    numpy's depend on where the lane falls in its vector loop.  Neither
    engine warns.
    """
    cfg = config(n_batches=1, t_final=0.02)
    plan = build_step_plan(cfg, kerr())
    method = MethodSpec.of(name)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for start in ((gamma, 0.5), (2.0, gamma)):
            monkeypatch.setattr(EnsembleConfig, "coherent_start",
                                property(lambda self: start))
            fast, ref = (integrator._simulate_chunk(
                3, 1, method, kerr(), cfg, plan, native=kernel)
                for kernel in (native, False))
            for k in ("live_counts", "blowup_times", "gauge_max"):
                assert fast[k].tobytes() == ref[k].tobytes(), (start, k)
            assert fast["sums"][1:].tobytes() == ref["sums"][1:].tobytes()
            assert ref["blowup_times"][0] == plan.sub_t_end[0]
    assert [str(c.message) for c in caught] == []


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_keeps_a_chunk_whose_lanes_die(native, name):
    """A lane that blows up is dead and adds nothing to later records, and
    ``run_chunk`` gives the numpy bytes for a chunk that loses lanes.
    Lanes die at the probe's threshold of 1.2."""
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES["switch"])
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.0305,
                         N_a0=4.0, N_b0=0.25, n_batches=3, sample_interval=7,
                         master_seed=2, blowup_threshold=1.2)
    plan = build_step_plan(cfg, params)
    method = MethodSpec.of(name)
    ref = integrator._simulate_chunk(0, 48, method, params, cfg, plan,
                                     record_gauge=True, native=False)
    out = {k: np.zeros_like(v) for k, v in ref.items()}
    out["blowup_times"][:] = np.nan
    assert cfg.lane_threshold == 1.2 * 2.0  # the kernel's, as sqrt(N_a0) = 2
    native.run_chunk(
        method, name != "wigner", True, cfg, 0, plan,
        dynamics.noise_coefficients(name, params, plan.sub_g), params, out)
    assert 0 < np.isfinite(out["blowup_times"]).sum() < 48
    for k in ref:
        assert out[k].tobytes() == ref[k].tobytes(), k


@pytest.mark.parametrize("chi_a", [1e8, 1e12])
def test_native_lanes_whose_rotation_underflows_die_like_numpy(
        native, monkeypatch, chi_a):
    """At a huge Kerr constant, exp(-i F dt) underflows to exactly 0 on
    live hybrid and positive-P lanes, whose plus amplitudes it divides.
    The kernel's quotient has no branch for a zero divisor: the lane is
    non-finite with or without one, so it dies at that substep in both
    engines, which give the same bytes for every method.  Zero factors are
    counted on the numpy loop, through ``dynamics.FREQUENCIES``; its dead
    lanes hold zeros, whose F is real, so each zero is a live lane's.
    Every noisy lane dies, and no wigner lane does: its F is real."""
    params = SystemParams(0.3, -0.7, chi_a, 0.9 * chi_a, CouplingSchedule(
        ((0.0123, 1.0), (math.inf, 0.6))))
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.0305,
                         N_a0=4.0, N_b0=0.25, n_batches=3, sample_interval=7,
                         master_seed=2, blowup_threshold=1e50)
    plan = build_step_plan(cfg, params)
    for name in METHOD_NAMES:
        method = MethodSpec.of(name)
        validate_config(cfg, method, params)
        frequencies, zeros = dynamics.FREQUENCIES[name], []

        def counting(a, ap, b, bp, params, g):
            f_a, f_b = frequencies(a, ap, b, bp, params, g)
            dt = plan.sub_dt[len(zeros)]
            zeros.append(sum(int((np.exp(-1j * f * dt) == 0).sum())
                             for f in (f_a, f_b)))
            return f_a, f_b

        monkeypatch.setitem(dynamics.FREQUENCIES, name, counting)
        fast, ref = (integrator._simulate_chunk(
            0, 64, method, params, cfg, plan, record_gauge=True,
            native=kernel) for kernel in (native, False))
        monkeypatch.setitem(dynamics.FREQUENCIES, name, frequencies)
        for k in ref:
            assert fast[k].tobytes() == ref[k].tobytes(), (name, k)
        assert len(zeros) == plan.n_substeps, name  # the numpy loop's only
        if name in ("hybrid", "positive_p"):
            assert sum(zeros) > 0, name
        died = np.isfinite(ref["blowup_times"])
        assert died.all() if name != "wigner" else not died.any(), name


def test_numpy_loop_zeroes_dead_lanes_that_an_exp_kick_breaks(native,
                                                              monkeypatch):
    """hybrid_truncated kicks its a pair by exp(m_a sqrt(dt)).  At a huge
    coupling that factor over- or underflows, and then a dead lane, which
    the numpy loop steps on from zero, turns nan.  The loop's records zero
    dead lanes again, and so keep the bytes of the kernel, which reads no
    dead lane."""
    params = kerr(g=1e10)
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.0305,
                         N_a0=4.0, N_b0=0.25, n_batches=3, sample_interval=7,
                         master_seed=23)
    plan = build_step_plan(cfg, params)
    noise, exponents = dynamics.NOISE["hybrid_truncated"], []

    def spy(coeffs, j, x):
        m = noise(coeffs, j, x)
        exponents.append(np.abs(m[0].real).max() * math.sqrt(plan.sub_dt[j]))
        return m

    monkeypatch.setitem(dynamics.NOISE, "hybrid_truncated", spy)
    out = []
    for kernel in (native, False):
        monkeypatch.setattr(integrator, "_native", kernel)
        out.append(run_bytes("hybrid_truncated", params, cfg))
    assert out[0] == out[1]
    live = np.frombuffer(out[1][1], dtype=np.int64)
    assert live[-cfg.n_batches:].sum() == 0  # every lane dead at the end
    # So at the last substep some dead lane's exp kick left the range of a
    # finite, nonzero double, whose exponents span about -745 to 709.
    assert len(exponents) == plan.n_substeps and exponents[-1] > 746


def test_chunk_mirrors_the_c_struct():
    """``Chunk._fields_`` lists ``chunk_t``'s members in order, each with
    the ctypes type of its C type, and the pointer members are the arrays
    of ``_LAYOUT``.  Read from the C source: no compiler is needed."""
    body = re.search(r"typedef struct \{([^}]*)\} chunk_t;",
                     _kernel.SOURCE.read_text())[1]
    members = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";"):
        if decl.strip():
            ctype, names = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s+(.*?)\s*",
                                        decl, re.S).groups()
            members += [(n.strip().lstrip("*"),
                         "pointer" if n.strip().startswith("*") else ctype)
                        for n in names.split(",")]
    ctypes_of = {"int32_t": ctypes.c_int32, "int64_t": ctypes.c_int64,
                 "uint64_t": ctypes.c_uint64, "double": ctypes.c_double,
                 "cplx": ctypes.c_double * 2, "pointer": ctypes.c_void_p}
    assert _kernel.Chunk._fields_ == [(name, ctypes_of[ctype])
                                      for name, ctype in members]
    assert [name for name, ctype in members
            if ctype == "pointer"] == list(_kernel._LAYOUT)


# Substeps of normals the kernel draws per lane at a time.
FILL = int(re.search(r"\bFILL = (\d+)", _kernel.SOURCE.read_text())[1])


@pytest.mark.parametrize("case", ["one_substep_segments",
                                  "segment_past_one_fill",
                                  "lanes_die_mid_fill"])
@pytest.mark.parametrize("name", ["hybrid", "hybrid_truncated", "positive_p"])
def test_native_normal_fills_give_the_numpy_bytes(native, name, case):
    """The kernel draws a lane's normals up to FILL substeps of a tile at
    a time; the numpy loop draws NOISE_BLOCK substeps of the run at a
    time.  Segments of one substep, segments longer than a fill, and lanes
    that die with part of a fill unread all give the numpy bytes."""
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES["switch"])
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-4, t_final=0.0605,
                         N_a0=4.0, N_b0=0.25, n_batches=3,
                         sample_interval=300, master_seed=2)
    if case == "one_substep_segments":  # no switch to split a step
        params = dataclasses.replace(
            params, coupling=NATIVE_SCHEDULES["constant"])
        cfg = dataclasses.replace(cfg, dt=1e-3, t_final=0.0205,
                                  sample_interval=1)
    elif case == "lanes_die_mid_fill":
        cfg = dataclasses.replace(cfg, blowup_threshold=1.2)  # the probe's
    plan = build_step_plan(cfg, params)
    lengths = np.diff(plan.ends, prepend=0)
    if case == "one_substep_segments":
        assert lengths.max() == 1
    else:
        assert lengths.max() > FILL
    fast, ref = (integrator._simulate_chunk(
        0, 48, MethodSpec.of(name), params, cfg, plan, record_gauge=True,
        native=kernel) for kernel in (native, False))
    for k in ref:
        assert fast[k].tobytes() == ref[k].tobytes(), k
    blow_t = ref["blowup_times"]
    if case == "lanes_die_mid_fill":
        # Each death's substep, counted from the start of its segment.
        j = np.searchsorted(plan.sub_t_end, blow_t[np.isfinite(blow_t)])
        seg = np.searchsorted(plan.ends, j, side="right")
        pos = j - np.concatenate([[0], plan.ends[:-1]])[seg]
        assert ((0 < pos) & (pos < FILL - 1)).any()  # in the first fill
        assert (pos >= FILL).any()  # in the second
    else:
        assert not np.isfinite(blow_t).any()


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 9])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_lane_groups_give_the_numpy_bytes(native, name, m):
    """The kernel steps a tile's live lanes four at a time and pads the
    last group with dead slots.  Chunks of every remainder, whose first
    lane is off batch 0, give the numpy bytes plain, with gauge drift,
    noise-free and losing lanes."""
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES["switch"])
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.0305,
                         N_a0=4.0, N_b0=0.25, n_batches=3, sample_interval=7,
                         master_seed=2)
    lossy = dataclasses.replace(cfg, blowup_threshold=1.2)  # the probe's
    plan = build_step_plan(cfg, params)
    runs = {"plain": (cfg, False, False), "gauge": (cfg, False, True),
            "noise_free": (cfg, True, True), "lossy": (lossy, False, True)}
    for variant, (c, noise_free, gauge) in runs.items():
        fast, ref = (integrator._simulate_chunk(
            7, m, MethodSpec.of(name), params, c, plan, noise_free, gauge,
            native=kernel) for kernel in (native, False))
        for k in ref:
            assert fast[k].tobytes() == ref[k].tobytes(), (variant, k)
        if variant == "lossy" and m == 9:
            assert 0 < np.isfinite(ref["blowup_times"]).sum() < m


@pytest.mark.parametrize("name, first", [("hybrid", 0),
                                         ("hybrid_truncated", 0),
                                         ("positive_p", 16)])
def test_native_group_lanes_that_die_apart_give_the_numpy_bytes(native, name,
                                                                 first):
    """Four lanes, stepped as one group, die at different substeps: one
    inside the first fill of a segment longer than FILL, while another
    lives on into that segment's next fill.  (Wigner lanes keep |alpha|,
    so they die at the first substep or not at all.)"""
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES["switch"])
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-4, t_final=0.0605,
                         N_a0=4.0, N_b0=0.25, n_batches=3,
                         sample_interval=300, master_seed=2,
                         blowup_threshold=1.2)
    plan = build_step_plan(cfg, params)
    fast, ref = (integrator._simulate_chunk(
        first, 4, MethodSpec.of(name), params, cfg, plan, record_gauge=True,
        native=kernel) for kernel in (native, False))
    for k in ref:
        assert fast[k].tobytes() == ref[k].tobytes(), k
    # Each lane's last substep, and where its segment starts.
    blow_t = ref["blowup_times"]
    dead = np.isfinite(blow_t)
    j = np.where(dead, np.searchsorted(plan.sub_t_end, blow_t),
                 plan.n_substeps)
    starts = np.concatenate([[0], plan.ends])
    assert len(set(j[dead])) >= 2
    assert any(plan.ends[s] - starts[s] > FILL
               and 0 < j[i] - starts[s] < FILL - 1
               and (j >= starts[s] + FILL).any()
               for i in np.flatnonzero(dead)
               for s in [np.searchsorted(plan.ends, j[i], side="right")])


# Segments per tile at most, and substeps per tile at least.
TILE = int(re.search(r"\bTILE = (\d+)", _kernel.SOURCE.read_text())[1])


def tiles(plan):
    """Each tile as the kernel cuts it, (first sample, last sample + 1):
    segments, sample 0's first, until they hold TILE substeps or TILE
    segments."""
    done = np.concatenate([[0], plan.ends])  # substeps before each sample
    out, s1, j1 = [], 0, 0
    while s1 < plan.n_samples:
        s0, j0 = s1, j1
        while s1 < plan.n_samples and s1 - s0 < TILE and j1 - j0 < TILE:
            j1 = done[s1]
            s1 += 1
        out.append((s0, s1))
    return out


def record_paths(plan, blow_t, n_batches):
    """How the kernel adds each group's records, from when lanes die.

    Counts the records made with vector adds ("packed": four live
    consecutive lanes in four consecutive columns, lane k in column
    k % n_batches), the records made lane by lane ("general"), and those
    of the latter whose group is four consecutive lanes ("wrapped": their
    columns wrap, or there are fewer than four)."""
    done = np.concatenate([[0], plan.ends])
    death = np.where(np.isfinite(blow_t),
                     np.searchsorted(plan.sub_t_end, blow_t), plan.n_substeps)
    w = min(n_batches, len(blow_t))
    count = dict.fromkeys(("packed", "general", "wrapped"), 0)
    for s0, s1 in tiles(plan):
        live = np.flatnonzero(death >= (done[s0 - 1] if s0 else 0))
        for group in (live[i:i + 4] for i in range(0, len(live), 4)):
            consecutive = len(group) == 4 and group[3] - group[0] == 3
            packed = consecutive and group[0] % n_batches + 3 < w
            for s in range(s0, s1):
                alive = death[group] >= done[s]
                if packed and alive.all():
                    count["packed"] += 1
                elif alive.any():
                    count["general"] += 1
                    count["wrapped"] += consecutive
    return count


@pytest.mark.parametrize("interval", [1, 3, TILE + 1])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_tiles_give_the_numpy_bytes(native, name, interval):
    """The kernel steps each group of lanes through a tile of segments and
    records each sample from the group's vectors, into an accumulator
    that it adds to the sums once every group has run the tile.  Tiles of
    one-substep segments, of short ones and of one segment longer than
    TILE; one batch, fewer batches than a group and more; chunks that
    start off batch 0; a short last group; and lanes that die inside a
    tile, so that later records of the tile see a dead slot: all give the
    numpy bytes.  Both record paths run: vector adds, and lane by lane,
    also for four consecutive lanes whose columns wrap."""
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES["switch"])
    paths = dict.fromkeys(("packed", "general", "wrapped"), 0)
    inside = 0
    for n_batches in (1, 3, 8):
        cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.2005,
                             N_a0=4.0, N_b0=0.25, n_batches=n_batches,
                             sample_interval=interval, master_seed=2,
                             blowup_threshold=1.2)  # the probe's
        plan = build_step_plan(cfg, params)
        done = np.concatenate([[0], plan.ends])
        for first in (0, 5, 2049):
            fast, ref = (integrator._simulate_chunk(
                first, 37, MethodSpec.of(name), params, cfg, plan,
                record_gauge=True, native=kernel)
                for kernel in (native, False))
            for k in ref:
                assert fast[k].tobytes() == ref[k].tobytes(), (
                    n_batches, first, k)
            blow_t = ref["blowup_times"]
            j = np.searchsorted(plan.sub_t_end, blow_t[np.isfinite(blow_t)])
            # Deaths with a record of their tile before and one after.
            inside += sum(int(((done[s0] <= j) & (j < done[s1 - 1])).sum())
                          for s0, s1 in tiles(plan))
            if n_batches == 8:  # fewer than four columns record lane by lane
                for path, n in record_paths(plan, blow_t, n_batches).items():
                    paths[path] += n
    assert len(tiles(plan)) > 2
    assert inside > 0
    assert all(n > 0 for n in paths.values()), paths


def zero_length_plan():
    """A probe-like lossy chunk whose step plan repeats its ends: three
    segments of no substeps before the first substep, TILE + 5 after the
    first segment and TILE + 2 at the end.  Returns its config, params and
    plan."""
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES["switch"])
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.0305,
                         N_a0=4.0, N_b0=0.25, n_batches=3, sample_interval=7,
                         master_seed=2, blowup_threshold=1.2)
    plan = build_step_plan(cfg, params)
    ends = np.concatenate([[0] * 3, [plan.ends[0]] * (TILE + 5),
                           plan.ends[1:], [plan.ends[-1]] * (TILE + 1)])
    times = np.where(ends > 0, plan.sub_t_end[ends - 1], 0.0)
    return cfg, params, dataclasses.replace(
        plan, ends=ends, sample_times=np.concatenate([[0.0], times]))


def zero_length_runs_match(kernel):
    """True if ``kernel`` gives the numpy loop's bytes for each method on
    ``zero_length_plan``'s chunk, with gauge drift and lanes that die."""
    cfg, params, plan = zero_length_plan()
    for name in METHOD_NAMES:
        fast, ref = (integrator._simulate_chunk(
            1, 30, MethodSpec.of(name), params, cfg, plan, record_gauge=True,
            native=engine) for engine in (kernel, False))
        if any(fast[k].tobytes() != ref[k].tobytes() for k in ref):
            return False
    return True


def test_native_records_runs_of_zero_length_segments_like_numpy(native):
    """``run_chunk`` accepts repeated ends, segments of no substeps that
    record the same state again.  More than TILE of them in a row make
    tiles of TILE segments, which give the numpy loop's sums and live
    counts."""
    cfg, params, plan = zero_length_plan()
    assert zero_length_runs_match(native)
    for name in METHOD_NAMES:
        ref = integrator._simulate_chunk(1, 30, MethodSpec.of(name), params,
                                         cfg, plan, native=False)
        live = ref["live_counts"].sum(axis=1)
        assert live[0] == 30 and live[-1] < 30, name


def test_native_tiles_stay_inside_their_accumulator(native, tmp_path):
    """Built with AddressSanitizer, the kernel runs the chunks of
    ``zero_length_runs_match``, with runs of more than TILE segments of no
    substeps, and reads and writes nothing outside its allocations; a tile
    of more than TILE segments would run past the accumulator's rows."""
    compiler = shutil.which(_kernel.COMPILER)
    if compiler is None:
        pytest.skip(f"no {_kernel.COMPILER} on PATH")
    runtime = subprocess.run([compiler, "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("no AddressSanitizer runtime")
    target = tmp_path / "kernel-asan.so"
    build = subprocess.run(
        [compiler, *_kernel._flags(), "-g", "-fsanitize=address", "-o",
         str(target), str(_kernel.SOURCE), "-lm"],
        capture_output=True, text=True, timeout=300)
    assert build.returncode == 0, build.stderr
    script = (
        "import sys; from pathlib import Path\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import test_integrator as t\n"
        f"kernel = t._kernel.Kernel(Path({str(target)!r}))\n"
        "print(t.zero_length_runs_match(kernel))\n")
    env = {**os.environ, "LD_PRELOAD": runtime,
           "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": os.pathsep.join(
               [str(Path(_kernel.__file__).parents[1]),
                os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == "True"


def test_native_build_without_fma_gives_the_same_bytes(native, monkeypatch,
                                                       tmp_path):
    """Built without -mfma, the kernel's vector complex products call
    libm's fma one element at a time.  That build passes the probe and
    gives the default build's bytes on a lossy chunk of each method."""
    flags = [f for f in _kernel._flags() if f != "-mfma"]
    monkeypatch.setattr(_kernel, "_flags", lambda: flags)
    monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
    path = _kernel.build()
    assert path is not None
    assert b"fma\0" in path.read_bytes()  # imported from libm
    plain = _kernel.Kernel(path)
    assert integrator._probe_matches(plain)
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES["switch"])
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.0305,
                         N_a0=4.0, N_b0=0.25, n_batches=3, sample_interval=7,
                         master_seed=4, blowup_threshold=1.2)
    plan = build_step_plan(cfg, params)
    for name in METHOD_NAMES:
        fast, ref = (integrator._simulate_chunk(
            5, 30, MethodSpec.of(name), params, cfg, plan, record_gauge=True,
            native=kernel) for kernel in (native, plain))
        for k in ref:
            assert fast[k].tobytes() == ref[k].tobytes(), (name, k)
        assert np.isfinite(ref["blowup_times"]).any(), name


def test_native_ndtri_is_scipys_bit_for_bit(ndtri_grid):
    """``phasesde_ndtri``, the kernel's inverse normal CDF, gives
    ``scipy.special.ndtri``'s bits in each branch and at each edge.

    The probe reaches neither the branch for u below exp(-32) nor the
    zero uniform's stand-in, the smallest normal double.
    """
    from scipy.special import ndtri

    kernel = _kernel.load()
    if kernel is None:
        pytest.skip("the native kernel does not load (no gcc or a failed "
                    "build); runs use the numpy loop")
    u = ndtri_grid
    out = np.full_like(u, 7.0)
    kernel.lib.phasesde_ndtri(ctypes.c_void_p(u.ctypes.data),
                              ctypes.c_void_p(out.ctypes.data),
                              ctypes.c_int64(u.size))
    ref = ndtri(u)
    bad = np.flatnonzero(out.view(np.uint64) != ref.view(np.uint64))
    assert bad.size == 0, [(u[i], out[i], ref[i]) for i in bad[:5]]


@pytest.mark.parametrize("port", ["numpy", "native"])
def test_no_normal_is_negative_zero(ndtri_grid, port):
    """Neither ndtri port returns -0.0, and u = 0.5 gives +0.0.  The
    kernel's initial sample rests on it: it leaves out the zero terms of
    Python's complex arithmetic, which could only set the sign of a zero."""
    u = np.append(ndtri_grid, 0.5)
    if port == "numpy":
        out = ndtri(u)
    else:
        kernel = _kernel.load()
        if kernel is None:
            pytest.skip("the native kernel does not load (no gcc or a "
                        "failed build); runs use the numpy loop")
        out = np.full_like(u, 7.0)
        kernel.lib.phasesde_ndtri(ctypes.c_void_p(u.ctypes.data),
                                  ctypes.c_void_p(out.ctypes.data),
                                  ctypes.c_int64(u.size))
    assert not np.signbit(out[out == 0.0]).any()
    assert out[-1] == 0.0 and not np.signbit(out[-1])


def native_cexp(kernel, z, port):
    """The kernel's ``cexp4`` over ``z``, with its port allowed or not."""
    z = np.ascontiguousarray(z, dtype=complex)
    out = np.full_like(z, 7.0)
    kernel.lib.phasesde_cexp(ctypes.c_void_p(z.ctypes.data),
                             ctypes.c_void_p(out.ctypes.data),
                             ctypes.c_int64(z.size), ctypes.c_int32(port))
    return out


def assert_cexp_port_is_libm(kernel, z):
    fast, ref = (native_cexp(kernel, z, port) for port in (1, 0))
    bad = np.flatnonzero((fast.view(np.uint64) != ref.view(np.uint64))
                         .reshape(-1, 2).any(axis=1))
    assert bad.size == 0, [(z[i], fast[i], ref[i]) for i in bad[:5]]


def signed_ulps_around(*values):
    """Each positive value and its neighbours one ulp away, both signs."""
    v = np.array(values, dtype=float).view(np.int64)
    near = (v[:, None] + np.arange(-1, 2)).ravel().view(np.float64)
    return np.concatenate([near, -near])


def complex_grid(re, im):
    """Every (re, im) pair, built without arithmetic on nan or inf."""
    z = np.empty((len(re), len(im)), dtype=complex)
    z.real, z.imag = np.meshgrid(re, im, indexing="ij")
    return z.ravel()


def libm_is_the_ports_model():
    """True on glibc 2.36 with a CPU that has FMA and AVX2, where libm's
    cexp runs the FMA builds of sincos and exp that the kernel ports."""
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (OSError, ValueError):
        return False
    flags = {f for line in cpuinfo.splitlines() if line.startswith("flags")
             for f in line.split()}
    return glibc == "glibc 2.36" and {"fma", "avx2"} <= flags


@pytest.fixture
def cexp_port(native):
    """The native kernel, whose cexp port passed its check at load.

    Only where libm is not the port's model may the check fail: chunks
    then call libm, and the port is not pinned."""
    if not native.cexp_port:
        if libm_is_the_ports_model():
            pytest.fail("the kernel's cexp port differs from the libm it "
                        "ports")
        pytest.skip("this libm is not the port's model, so chunks call "
                    "libm")
    return native


def test_native_cexp_port_is_libms_bit_for_bit(cexp_port):
    """With its port of glibc's cexp on, the kernel's ``cexp4`` gives
    libm's bits at both signs of each edge of both stages: zero,
    subnormals, 2^-27, 0.126, each table point k/128 and the midpoints
    between them in the imaginary part; 2^-54 and 512 in the real part.
    Then on 10^7 seeded arguments over the port's range, a third of them
    with a zero real part, as every Wigner rotation has."""
    tiny = np.finfo(float).tiny
    edges = [0.0, -0.0, 5e-324, -5e-324, tiny / 2, -tiny / 2]
    im = np.concatenate([edges, signed_ulps_around(
        tiny, 2.0 ** -27, 0.126, *(k / 128 for k in range(1, 17)),
        *((k + 0.5) / 128 for k in range(17)))])
    re = np.concatenate([edges, signed_ulps_around(
        tiny, 2.0 ** -54, 1e-3, 0.5, 20.0, 511.0, 512.0)])
    assert_cexp_port_is_libm(cexp_port, complex_grid(re, im))
    rng = np.random.default_rng(20261020)
    n = 10 ** 6
    for _ in range(10):
        shrink = rng.integers(0, 64, (2, n)) * (rng.random((2, n)) < 0.5)
        scale = 2.0 ** -shrink
        re = rng.uniform(-512, 512, n) * scale[0] * (rng.random(n) < 2 / 3)
        im = rng.uniform(-0.126, 0.126, n) * scale[1]
        assert_cexp_port_is_libm(cexp_port, re + 1j * im)


def test_native_cexp_sends_other_arguments_to_libm(cexp_port):
    """Non-finite parts and finite ones outside the port's range give
    libm's bits with the port on, nan payloads included."""
    inf, nan = math.inf, math.nan
    re = np.array([0.0, 1.0, -1.0, 512.0, -512.0, 700.0, -800.0, 1e300,
                   inf, -inf, nan])
    im = np.array([0.0, -0.0, 1e-3, 0.126, -0.126, 1.0, -3.0, 1e300, inf,
                   -inf, nan])
    assert_cexp_port_is_libm(cexp_port, complex_grid(re, im))


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_runs_give_the_same_bytes_with_the_cexp_port_or_libm(
        cexp_port, monkeypatch, name):
    """Whole runs with the port forced off give the bytes of runs with it
    on: the rotations, hybrid_truncated's exponential kick, and a
    coupling that switches off the dt grid."""
    libm = copy.copy(cexp_port)
    libm.cexp_port = False
    params = SystemParams(0.3, -0.7, 1.1, 0.9, NATIVE_SCHEDULES["switch"])
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.0305,
                         N_a0=4.0, N_b0=0.25, n_batches=3, sample_interval=7,
                         master_seed=31, blowup_threshold=1.2)
    runs = []
    for kernel in (cexp_port, libm):
        monkeypatch.setattr(integrator, "_native", kernel)
        runs.append(run_bytes(name, params, cfg, record_gauge_drift=True))
    assert runs[0] == runs[1]


def test_failed_cexp_check_logs_once_and_calls_libm(monkeypatch, caplog):
    """A kernel whose port differs from libm keeps it off, says so once at
    INFO, and the engine record names libm."""
    path = _kernel.build()
    if path is None:
        pytest.skip("the native kernel does not build")
    cdll = ctypes.CDLL

    class Differs:
        """The kernel's library, with a check that fails."""

        def __init__(self, name):
            self.lib = cdll(name)

        def __getattr__(self, name):
            return getattr(self.lib, name)

        @staticmethod
        def phasesde_cexp_check():
            return 0

    caplog.set_level(logging.INFO, logger=_kernel.log.name)
    monkeypatch.setattr(_kernel.ctypes, "CDLL", Differs)
    kernel = _kernel.Kernel(path)
    assert kernel.cexp_port is False
    assert [r.levelno for r in caplog.records] == [logging.INFO]
    assert "cexp" in caplog.messages[0]
    monkeypatch.setattr(integrator, "_native", kernel)
    assert integrator.engine_record() == {"name": "native", "cexp": "libm"}
    monkeypatch.setattr(integrator, "_native", False)
    assert integrator.engine_record() == {"name": "numpy"}


@pytest.mark.parametrize("ends", [[30, 20, 50], [20, 40, 49], [-1, 20, 50]],
                         ids=["falling", "short", "negative"])
def test_native_refuses_segment_ends_it_cannot_follow(native, ends):
    """The kernel reads ``sub_dt`` up to the last end, so the ends must
    rise from 0 to the substep count."""
    cfg = config(sample_interval=20)
    plan = build_step_plan(cfg, kerr())
    assert plan.ends.tolist() == [20, 40, 50]
    bad = dataclasses.replace(plan, ends=np.array(ends, dtype=np.int64))
    # Partials of the right layout: sums, live_counts, blow-up times and
    # gauge maxima.
    out = integrator._simulate_chunk(0, 4, MethodSpec.of("hybrid"), kerr(),
                                     cfg, plan, native=False)
    with pytest.raises(ValueError, match="ends must rise"):
        native.run_chunk(
            MethodSpec.of("hybrid"), True, False, cfg, 0, bad,
            dynamics.noise_coefficients("hybrid", kerr(), plan.sub_g), kerr(),
            out)


class Corrupted:
    """A native kernel whose chunks come out with the first sum nudged."""

    def __init__(self, kernel):
        self.kernel = kernel

    def run_chunk(self, *args):
        self.kernel.run_chunk(*args)
        partials = args[-1]
        partials["sums"].flat[0] *= 1.0 + 2.0 ** -52


@pytest.mark.parametrize("fault", ["corrupted", "no_compiler",
                                   "failing_compiler"])
def test_native_faults_fall_back_to_numpy_bytes(monkeypatch, tmp_path, caplog,
                                                fault):
    """A kernel that fails the probe, or that cannot be built, is not used."""
    from phasesde import _kernel

    caplog.set_level(logging.INFO, logger=_kernel.log.name)
    cfg = config(n_trajectories=48, n_batches=3, master_seed=29)
    monkeypatch.setattr(integrator, "_native", False)
    ref = run_bytes("hybrid", kerr(), cfg, record_gauge_drift=True)

    if fault == "corrupted":
        kernel = _kernel.load()
        if kernel is None:
            pytest.skip("the native kernel does not load")
        monkeypatch.setattr(_kernel, "load", lambda: Corrupted(kernel))
    else:
        monkeypatch.setattr(_kernel, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(_kernel, "COMPILER", {
            "no_compiler": "no-such-compiler-phasesde",
            "failing_compiler": "false"}[fault])
    monkeypatch.setattr(integrator, "_native", None)
    assert run_bytes("hybrid", kerr(), cfg, record_gauge_drift=True) == ref
    assert integrator._native is False
    if fault == "corrupted":  # loaded, then refused by the probe
        assert "native kernel differs from numpy" in caplog.messages


def test_threads_that_call_during_the_first_load_share_its_kernel(
        monkeypatch):
    """The kernel loads once; a second thread that asks while the first
    load runs waits for it, rather than taking the numpy loop."""
    kernel, loads = object(), []
    loading, release = threading.Event(), threading.Event()

    def slow_load():
        loads.append(threading.get_ident())
        loading.set()
        assert release.wait(timeout=60)
        return kernel

    monkeypatch.setattr(_kernel, "load", slow_load)
    monkeypatch.setattr(integrator, "_probe_matches", lambda k: k is kernel)
    monkeypatch.setattr(integrator, "_native", None)
    got = {}

    def call(name):
        got[name] = integrator._load_native()

    first = threading.Thread(target=call, args=("first",))
    second = threading.Thread(target=call, args=("second",))
    first.start()
    assert loading.wait(timeout=60)
    second.start()
    second.join(timeout=0.2)  # time to reach the load, or to return early
    release.set()
    first.join(timeout=60)
    second.join(timeout=60)
    assert not first.is_alive() and not second.is_alive()
    assert got == {"first": kernel, "second": kernel}
    assert len(loads) == 1
    assert integrator._native is kernel


def test_native_build_is_cached_by_source_and_flags(monkeypatch, tmp_path):
    from phasesde import _kernel

    compiler = _kernel.COMPILER
    if shutil.which(compiler) is None:
        pytest.skip(f"no {compiler} on PATH")
    cache = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "CACHE_DIR", cache)
    path = _kernel.build()
    assert path is not None and path.parent == cache
    assert cache.stat().st_mode & 0o777 == 0o700
    assert [p.name for p in cache.iterdir()] == [path.name]  # no temp file
    # A second build finds the cached file and needs no compiler.
    monkeypatch.setattr(_kernel, "COMPILER", "no-such-compiler-phasesde")
    assert _kernel.build() == path
    # A build from a changed source keeps the other source's object, and
    # leaves the temporary file of a concurrent build alone.
    monkeypatch.setattr(_kernel, "COMPILER", compiler)
    source = tmp_path / "_kernel.c"
    source.write_bytes(_kernel.SOURCE.read_bytes() + b"/* changed */\n")
    monkeypatch.setattr(_kernel, "SOURCE", source)
    (cache / "tmp123.so.tmp").touch()
    changed = _kernel.build()
    assert changed is not None and changed != path
    assert sorted(p.name for p in cache.iterdir()) == sorted([
        path.name, changed.name, "tmp123.so.tmp"])
    # A cache directory that others may write is refused.
    cache.chmod(0o770)
    assert _kernel.build() is None


def test_native_cache_keeps_two_sources_and_prunes_the_least_used(
        monkeypatch, tmp_path):
    """Building source A, then B, then A compiles nothing the third time,
    as when two checkouts share a cache.  A build keeps ``CACHE_KEEP``
    objects, its own and the most recently used of the others."""
    compiler = _kernel.COMPILER
    if shutil.which(compiler) is None:
        pytest.skip(f"no {compiler} on PATH")
    cache = tmp_path / "cache"
    monkeypatch.setattr(_kernel, "CACHE_DIR", cache)
    monkeypatch.setattr(_kernel, "CACHE_KEEP", 2)
    cache.mkdir(mode=0o700)
    old = cache / "kernel-0123456789abcdef.so"  # last used long ago
    old.touch()
    os.utime(old, (1e9, 1e9))
    source_a = _kernel.SOURCE
    source_b = tmp_path / "_kernel.c"
    source_b.write_bytes(source_a.read_bytes() + b"/* B */\n")
    path_a = _kernel.build()
    assert sorted(cache.iterdir()) == sorted([old, path_a])
    monkeypatch.setattr(_kernel, "SOURCE", source_b)
    path_b = _kernel.build()
    assert sorted(cache.iterdir()) == sorted([path_a, path_b])
    monkeypatch.setattr(_kernel, "COMPILER", "no-such-compiler-phasesde")
    monkeypatch.setattr(_kernel, "SOURCE", source_a)
    assert _kernel.build() == path_a
    assert sorted(cache.iterdir()) == sorted([path_a, path_b])
