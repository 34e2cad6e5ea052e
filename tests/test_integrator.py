"""Step plans, the single-step map, and ensemble integration."""
import logging
import math
import shutil
import warnings

import numpy as np
import pytest

from phasesde import (
    CoherentInit,
    ConfigError,
    CouplingSchedule,
    EnsembleConfig,
    MethodSpec,
    PhasePoint,
    SystemParams,
    build_step_plan,
    run_ensemble,
    simulate_trajectory,
)
from phasesde import _kernel, dynamics, integrator
from phasesde.core import METHOD_NAMES, MONOMIALS
from phasesde.integrator import _KICKS, _substep_coefficients

APA = MONOMIALS.index("alpha_plus_alpha")


def kerr(g=1.0, omega_a=0.0, omega_b=0.0, chi_a=1.0, chi_b=1.0):
    return SystemParams(omega_a, omega_b, chi_a, chi_b,
                        CouplingSchedule.constant(g))


def config(**kw):
    base = dict(n_trajectories=64, dt=1e-3, t_final=0.05, N_a0=1.0,
                N_b0=0.25, n_batches=8, sample_interval=10, master_seed=5)
    base.update(kw)
    return EnsembleConfig(**base)


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
    assert plan.record_after.sum() == 10  # t=0 is not a recorded substep


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
    assert plan.record_after[-1]


def test_plan_zero_duration_is_a_single_sample():
    plan = build_step_plan(config(t_final=0.0), kerr())
    assert plan.n_substeps == 0
    np.testing.assert_array_equal(plan.sample_times, [0.0])


# ---------------------------------------------------------------------------
# the engine's step against dynamics.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_engine_step_matches_drift_and_noise_factor(name):
    """The kernel's kick and rotation give A(p) dt + B(p) xi sqrt(dt).

    Calls the kick and frequency builders that _simulate_chunk runs, at
    random phase points and a fixed xi: -i F x must equal the drift of
    dynamics.py, and the kick's linear term (for hybrid_truncated, the log
    of its exponential pair) must equal B(p) xi sqrt(dt).
    """
    params = SystemParams(0.3, -0.7, 1.1, 0.9, CouplingSchedule.constant(0.6))
    plan = build_step_plan(config(), params)
    method = MethodSpec.of(name)
    coeffs = _substep_coefficients(method, params, plan)
    g, sdt = plan.sub_g[0], math.sqrt(plan.sub_dt[0])
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
        assert name not in _KICKS  # the noise factor is zero
        return
    xi = np.array([0.7, -1.3, 0.4, 1.1])
    mid = np.array(_KICKS[name](coeffs, 0, np.tile(xi, (len(a), 1)), sdt,
                                a, ap, b, bp))
    linear = mid - state
    if name == "hybrid_truncated":
        linear[:2] = state[:2] * np.log(mid[:2] / state[:2])
    factor = (dynamics.positive_p_noise_factor if name == "positive_p"
              else dynamics.hybrid_noise_factor)
    expected = np.array([factor(p, params, g) @ xi for p in points]).T * sdt
    np.testing.assert_allclose(linear, expected, rtol=1e-9)


# ---------------------------------------------------------------------------
# ensemble runs
# ---------------------------------------------------------------------------


def test_noise_free_hybrid_conserves_occupation():
    rec = simulate_trajectory(
        CoherentInit.from_occupations(4.0, 0.25), "hybrid", kerr(),
        config(n_trajectories=1, n_batches=1, t_final=0.5), noise_free=True)
    apa = rec.monomials[:, APA].real
    assert np.all(rec.live)
    np.testing.assert_allclose(apa, apa[0], rtol=1e-12)
    assert np.abs(rec.monomials[:, APA].imag).max() < 1e-12


def test_noise_free_hybrid_equals_further_truncated():
    """Without noise both b occupations stay real, so the flows coincide."""
    init = CoherentInit.from_occupations(2.0, 1.0)
    kw = dict(trajectory_index=3, noise_free=True)
    rec_full = simulate_trajectory(init, "hybrid", kerr(),
                                   config(t_final=0.2), **kw)
    rec_trunc = simulate_trajectory(init, "hybrid_truncated", kerr(),
                                    config(t_final=0.2), **kw)
    np.testing.assert_allclose(rec_full.monomials, rec_trunc.monomials,
                               rtol=1e-12, atol=1e-13)


def test_ensemble_is_deterministic_across_worker_counts(monkeypatch):
    """Same bytes for 1, 2 and 4 workers over several chunks.

    16-lane chunks give 4 chunks per run, so the worker pool and the
    ordered reduce both run; the positive-P case loses lanes.
    """
    monkeypatch.setattr(integrator, "CHUNK_SIZE", 16)
    cases = [
        ("hybrid", config(n_trajectories=64)),
        ("positive_p", config(n_trajectories=64, dt=1e-4, t_final=0.15,
                              N_a0=100.0, N_b0=0.01, sample_interval=50,
                              master_seed=14)),
    ]
    for name, cfg in cases:
        runs = [run_ensemble(name, kerr(), cfg, n_workers=w,
                             record_gauge_drift=True) for w in (1, 2, 4)]
        one = runs[0]
        if name == "positive_p":
            assert np.isfinite(one.blowup_times).any()
        for other in runs[1:]:
            assert one.sums.tobytes() == other.sums.tobytes()
            assert one.live_counts.tobytes() == other.live_counts.tobytes()
            assert np.array_equal(one.blowup_times, other.blowup_times,
                                  equal_nan=True)
            assert one.gauge_drift.tobytes() == other.gauge_drift.tobytes()


def test_ensemble_depends_on_master_seed():
    a = run_ensemble("hybrid", kerr(), config(master_seed=5))
    b = run_ensemble("hybrid", kerr(), config(master_seed=6))
    assert not np.array_equal(a.sums, b.sums)


def test_single_trajectory_validates_its_config():
    with pytest.raises(ConfigError):
        simulate_trajectory(CoherentInit.from_occupations(1.0, 0.25),
                            "hybrid", kerr(), config(n_batches=0))


@pytest.mark.parametrize("index", [1.5, -1, 2 ** 64, True, "3", None])
def test_single_trajectory_rejects_a_bad_index(index):
    """Only an int in [0, 2**64) names a trajectory's stream."""
    with pytest.raises(ConfigError, match="trajectory_index"):
        simulate_trajectory(CoherentInit.from_occupations(1.0, 0.25),
                            "hybrid", kerr(), config(),
                            trajectory_index=index)


@pytest.mark.parametrize("n_workers", [0, -2, 2.5, True, "2"])
def test_ensemble_rejects_a_bad_worker_count(n_workers):
    with pytest.raises(ConfigError, match="n_workers"):
        run_ensemble("hybrid", kerr(), config(), n_workers=n_workers)


@pytest.mark.parametrize("gamma", [complex(math.nan, 1.0),
                                   complex(1.0, math.inf)])
def test_single_trajectory_rejects_a_non_finite_amplitude(gamma):
    for init in (CoherentInit(gamma, 0.5), CoherentInit(2.0, gamma)):
        with pytest.raises(ConfigError, match="init amplitudes must be finite"):
            simulate_trajectory(init, "hybrid", kerr(), config())


def test_single_trajectory_reproduces_its_ensemble_contribution():
    cfg = config(n_trajectories=1, n_batches=1, master_seed=9)
    ens = run_ensemble("positive_p", kerr(), cfg)
    rec = simulate_trajectory(CoherentInit.from_occupations(1.0, 0.25),
                              "positive_p", kerr(), cfg, trajectory_index=0)
    assert np.array_equal(ens.sums[:, 0, :], rec.monomials)


def test_ensemble_sums_match_brute_force_accumulation():
    """Bit-identical to summing single-trajectory runs batch by batch."""
    cfg = config(n_trajectories=100, n_batches=10, master_seed=12)
    ens = run_ensemble("hybrid", kerr(), cfg)
    init = CoherentInit.from_occupations(cfg.N_a0, cfg.N_b0)
    manual = np.zeros_like(ens.sums)
    counts = np.zeros_like(ens.live_counts)
    for i in range(cfg.n_trajectories):
        rec = simulate_trajectory(init, "hybrid", kerr(), cfg,
                                  trajectory_index=i)
        batch = i % cfg.n_batches
        live = rec.live
        manual[live, batch, :] += rec.monomials[live]
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

    init = CoherentInit.from_occupations(cfg.N_a0, cfg.N_b0)
    manual = counts = None
    for lo in range(0, cfg.n_trajectories, 16):
        part = np.zeros_like(ens.sums)
        part_counts = np.zeros_like(ens.live_counts)
        for i in range(lo, min(lo + 16, cfg.n_trajectories)):
            rec = simulate_trajectory(init, "positive_p", kerr(), cfg,
                                      trajectory_index=i)
            part[rec.live, i % 3, :] += rec.monomials[rec.live]
            part_counts[rec.live, i % 3] += 1
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
    rec = simulate_trajectory(
        CoherentInit.from_occupations(4.0, 0.25), "wigner", kerr(),
        config(n_trajectories=1, n_batches=1, dt=1e-3, t_final=2.0,
               sample_interval=100))
    apa = rec.monomials[:, APA].real
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
    F = _substep_coefficients(MethodSpec.of("positive_p"), params, plan)["F"]
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


def trajectory_bytes(monkeypatch, kernel, *args, **kwargs):
    """``simulate_trajectory`` on ``kernel``, or on the numpy loop if False."""
    monkeypatch.setattr(integrator, "_native", kernel)
    rec = simulate_trajectory(*args, **kwargs)
    return rec.monomials.tobytes(), rec.live.tobytes(), rec.blowup_time


@pytest.mark.parametrize("seed", [0, 2 ** 63, 2 ** 64 - 1])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_streams_match_numpy_at_extreme_keys(native, monkeypatch,
                                                    name, seed):
    """Both Philox key words at their extremes, index words above 2**32."""
    cfg = config(master_seed=seed, n_batches=4, t_final=0.03,
                 sample_interval=7)
    init = CoherentInit.from_occupations(cfg.N_a0, cfg.N_b0)
    for index in (2 ** 32 + 7, 2 ** 64 - 1):
        fast, ref = (trajectory_bytes(monkeypatch, kernel, init, name,
                                      kerr(), cfg, trajectory_index=index)
                     for kernel in (native, False))
        assert fast == ref, index


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_samples_complex_amplitudes_like_numpy(native, monkeypatch,
                                                      name):
    """Complex gammas, in one trajectory and in a chunk off batch 0."""
    cfg = config(n_batches=4, t_final=0.03, sample_interval=7,
                 master_seed=31)
    init = CoherentInit(2 + 0.5j, 0.5 - 0.1j)
    fast, ref = (trajectory_bytes(monkeypatch, kernel, init, name, kerr(),
                                  cfg, trajectory_index=5)
                 for kernel in (native, False))
    assert fast == ref

    plan = build_step_plan(cfg, kerr())
    method = MethodSpec.of(name)
    coeffs = _substep_coefficients(method, kerr(), plan)
    fast, ref = ({k: v.tobytes() for k, v in integrator._chunk(
        kernel, np.arange(7, 27), method, kerr(), cfg, init, plan, coeffs,
        False, True, 2.6).items()} for kernel in (native, False))
    assert fast == ref


@pytest.mark.parametrize("gamma", [complex(math.nan, 1.0),
                                   complex(1.0, math.nan),
                                   complex(math.inf, 1.0)],
                         ids=["nan_re", "nan_im", "inf_re"])
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_native_non_finite_amplitude_dies_like_numpy(native, name, gamma):
    """A non-finite initial amplitude kills the lane at the first substep.

    The kernel kills it itself, and hands the chunk to the numpy loop,
    which alone knows the nan bits of its record 0.  Neither engine warns.
    """
    cfg = config(n_batches=1, t_final=0.02)
    plan = build_step_plan(cfg, kerr())
    method = MethodSpec.of(name)
    coeffs = _substep_coefficients(method, kerr(), plan)
    threshold = cfg.blowup_threshold * max(1.0, math.sqrt(cfg.N_a0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for init in (CoherentInit(gamma, 0.5), CoherentInit(2.0, gamma)):
            fast, ref = (integrator._chunk(
                kernel, np.array([3]), method, kerr(), cfg, init, plan,
                coeffs, False, False, threshold) for kernel in (native, False))
            for k in ref:
                assert fast[k].tobytes() == ref[k].tobytes(), (init, k)
            assert ref["blowup_times"][0] == plan.sub_t_end[0]

            out = {k: np.zeros_like(v) for k, v in ref.items()}
            out["blowup_times"][:] = np.nan
            assert not native.run_chunk(
                method, name != "wigner", False, init, cfg.master_seed, 3,
                plan, coeffs, kerr(), threshold, out["sums"],
                out["live_counts"], out["blowup_times"], out["gauge_max"])
            for k in ("live_counts", "blowup_times", "gauge_max"):
                assert out[k].tobytes() == ref[k].tobytes(), k
            assert out["sums"][1:].tobytes() == ref["sums"][1:].tobytes()
    assert [str(c.message) for c in caught] == []


class Corrupted:
    """A native kernel whose chunks come out with the first sum nudged."""

    def __init__(self, kernel):
        self.kernel = kernel

    def run_chunk(self, *args):
        done = self.kernel.run_chunk(*args)
        sums = args[-4]
        sums.flat[0] *= 1.0 + 2.0 ** -52
        return done


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
    # A build from a changed source removes the stale object, and leaves
    # the temporary file of a concurrent build alone.
    monkeypatch.setattr(_kernel, "COMPILER", compiler)
    source = tmp_path / "_kernel.c"
    source.write_bytes(_kernel.SOURCE.read_bytes() + b"/* changed */\n")
    monkeypatch.setattr(_kernel, "SOURCE", source)
    (cache / "tmp123.so.tmp").touch()
    changed = _kernel.build()
    assert changed is not None and changed != path
    assert sorted(p.name for p in cache.iterdir()) == [
        changed.name, "tmp123.so.tmp"]
    # A cache directory that others may write is refused.
    cache.chmod(0o770)
    assert _kernel.build() is None
