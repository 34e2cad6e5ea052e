"""Batch statistics, series estimation, and breakdown detection."""
import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest

from phasesde import (
    CouplingSchedule,
    EnsembleConfig,
    EnsembleResult,
    MethodSpec,
    SystemParams,
    run_ensemble,
)
from phasesde.core import MONOMIALS
from phasesde.oracle import OracleParams, exact_series
from phasesde.representations import (
    OBSERVABLE_NAMES,
    observable_estimate_complex,
)
from phasesde.stats import (
    BLOWUP_FACTOR,
    BLOWUP_WINDOW,
    ObservableSeries,
    correlation_series,
    detect_blowup,
    observable_series,
)


def test_stderr_reliable_latches_at_first_loss():
    series = ObservableSeries(
        name="X_a", method="hybrid",
        times=np.arange(4.0), mean=np.zeros(4), stderr=np.ones(4),
        live_fraction=np.array([1.0, 1.0, 0.99, 1.0]),
        n_batches_used=np.full(4, 10), exact=np.zeros(4))
    np.testing.assert_array_equal(series.stderr_reliable,
                                  [True, True, False, False])


# ---------------------------------------------------------------------------
# synthetic ensembles
# ---------------------------------------------------------------------------


def moment_row(alpha, alpha_plus, beta, beta_plus):
    apa = alpha_plus * alpha
    return np.array([
        alpha, alpha_plus, beta, beta_plus,
        apa, beta_plus * beta, apa ** 2,
        beta ** 2, beta_plus ** 2, apa * beta, apa * beta_plus,
    ], dtype=complex)


def synthetic_result(rows, method="positive_p"):
    """A one-sample ensemble with each row standing in for one batch."""
    n_batches = len(rows)
    sums = np.array([rows])
    live = np.ones((1, n_batches), dtype=np.int64)
    cfg = EnsembleConfig(n_trajectories=n_batches, dt=1e-3, t_final=0.0,
                         N_a0=4.0, N_b0=0.25, n_batches=n_batches)
    params = SystemParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.constant(1.0))
    return EnsembleResult(
        times=np.array([0.0]),
        sums=sums,
        live_counts=live,
        blowup_times=np.full(n_batches, np.nan),
        method=MethodSpec.of(method),
        params=params,
        config=cfg,
    )


def test_correlation_drops_batches_with_nonpositive_variance():
    healthy_a = moment_row(2.0, 2.0, 0.5, 0.5)
    healthy_b = moment_row(2.1, 2.1, 0.4, 0.4)
    poisoned = moment_row(2.0, 2.0, 2.0, -2.0)  # Y_b variance estimate -3.75
    result = synthetic_result([healthy_a, healthy_b, poisoned])
    with pytest.warns(UserWarning, match="non-positive variance product"):
        series = correlation_series(result)
    assert series.n_batches_used[0] == 2
    assert np.isfinite(series.mean[0])


def test_imaginary_residual_warning():
    # a systematic imaginary part in X_a across batches is flagged
    rows = [moment_row(2.0j, 2.0j, 0.5, 0.5),
            moment_row(2.1j, 2.1j, 0.5, 0.5),
            moment_row(1.9j, 1.9j, 0.5, 0.5)]
    result = synthetic_result(rows)
    with pytest.warns(UserWarning, match="imaginary residual"):
        observable_series(result, name="X_a")


def test_correlation_series_is_the_named_observable():
    cfg = EnsembleConfig(n_trajectories=100, dt=1e-3, t_final=0.3,
                         N_a0=100.0, N_b0=0.01, n_batches=10,
                         sample_interval=50, master_seed=61)
    params = SystemParams(0.0, -100.0, 1.0, 1.0,
                          CouplingSchedule.switched(1.0, 0.1))
    res = run_ensemble("hybrid", params, cfg)
    a = correlation_series(res)
    b = observable_series(res, name="C_Na_Yb")
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.stderr, b.stderr)
    np.testing.assert_array_equal(a.exact, b.exact)


def test_exact_curve_follows_a_general_schedule():
    """A schedule that is neither constant nor switched off once has its
    closed-form curve too, from the run's own physics."""
    schedule = CouplingSchedule(((0.05, 1.0), (0.1, 0.5), (math.inf, 0.0)))
    params = SystemParams(0.0, 0.0, 1.0, 1.0, schedule)
    cfg = EnsembleConfig(n_trajectories=20, dt=1e-3, t_final=0.15,
                         N_a0=1.0, N_b0=0.25, n_batches=4, sample_interval=50,
                         master_seed=8)
    res = run_ensemble("hybrid", params, cfg)
    exact = observable_series(res, name="X_b").exact
    want = exact_series("X_b", res.times,
                        OracleParams(0.0, 0.0, 1.0, 1.0, schedule, 1.0, 0.25))
    assert exact.tobytes() == want.tobytes()
    constant = exact_series("X_b", res.times,
                            OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 0.25))
    assert np.abs(exact - constant).max() > 0.01


def test_unknown_observable_name_is_rejected():
    result = synthetic_result([moment_row(1.0, 1.0, 0.5, 0.5),
                               moment_row(1.0, 1.0, 0.5, 0.5)])
    with pytest.raises(ValueError):
        observable_series(result, name="Q_a")


# ---------------------------------------------------------------------------
# real runs: error scaling and physics
# ---------------------------------------------------------------------------


def _per_sample_reference(res, name):
    """Mean, stderr, batches used and warning texts, one sample at a time."""
    vals = observable_estimate_complex(name, res.moment_means(), res.method)
    finite = np.isfinite(vals)
    mean = np.full(res.n_samples, np.nan)
    stderr = np.full(res.n_samples, np.nan)
    used = np.count_nonzero(finite, axis=1)
    worst_im = 0.0
    for s in range(res.n_samples):
        re, im = vals.real[s][finite[s]], vals.imag[s][finite[s]]
        if re.size:
            mean[s] = re.mean()
        if re.size >= 2:
            root = math.sqrt(re.size)
            stderr[s] = re.std(ddof=1) / root
            excess = abs(im.mean()) - max(10.0 * (im.std(ddof=1) / root),
                                          1e-8 * (1.0 + abs(mean[s])))
            worst_im = max(worst_im, excess)
    messages = []
    dropped = np.count_nonzero((res.live_counts > 0) & ~finite)
    if dropped:
        messages.append(f"{name}: dropped {dropped} live batch estimates "
                        "with no finite value (non-positive variance product)")
    if worst_im > 0:
        messages.append(f"{name}: imaginary residual inconsistent with zero "
                        f"(excess {worst_im:.3g}); check sampling or dynamics")
    return mean, stderr, used, messages


def test_series_match_a_per_sample_reference():
    """Mean, stderr, batches used and warnings equal a per-sample reference.

    The positive-P runs lose whole batches, and C_Na_Yb also drops live
    batches whose variance product is not positive, so rows with every
    batch finite, with some, with one and with none are covered.  The
    16-batch run has rows of 8 to 15 finite batches, where numpy sums in
    pairwise blocks.
    """
    params = SystemParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.constant(1.0))
    for n_batches, seed in ((6, 10), (16, 11)):
        cfg = EnsembleConfig(n_trajectories=10 * n_batches, dt=1e-3,
                             t_final=0.2, N_a0=100.0, N_b0=0.01,
                             n_batches=n_batches, sample_interval=2,
                             master_seed=seed, blowup_threshold=3.0)
        res = run_ensemble("positive_p", params, cfg)
        alive = np.count_nonzero(res.live_counts > 0, axis=1)
        assert (alive == n_batches).any() and (alive < n_batches).any()

        counts, dropped_live = set(), False
        for name in OBSERVABLE_NAMES:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                series = observable_series(res, name=name)
            mean, stderr, used, messages = _per_sample_reference(res, name)
            assert series.mean.tobytes() == mean.tobytes(), name
            assert series.stderr.tobytes() == stderr.tobytes(), name
            assert np.array_equal(series.n_batches_used, used), name
            assert [str(c.message) for c in caught] == messages, name
            counts.update(used.tolist())
            dropped_live |= bool((used < alive).any())
        assert dropped_live, n_batches
        assert {0, 1, n_batches}.issubset(counts), n_batches
        if n_batches == 16:
            assert counts & set(range(8, 16)), counts


def test_series_of_one_result_share_one_means_computation(monkeypatch):
    """Every series of one result reads the moment means computed once,
    and gives the bytes of a series computed from its own fresh means."""
    params = SystemParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.constant(1.0))
    cfg = EnsembleConfig(n_trajectories=48, dt=1e-3, t_final=0.1,
                         N_a0=100.0, N_b0=0.01, n_batches=6,
                         sample_interval=5, master_seed=12,
                         blowup_threshold=3.0)
    res = run_ensemble("positive_p", params, cfg)
    assert 0 < np.isfinite(res.blowup_times).sum() < 48

    calls = []
    means = EnsembleResult._means.func

    def counted(self):
        calls.append(self)
        return means(self)

    spy = functools.cached_property(counted)
    spy.__set_name__(EnsembleResult, "_means")
    monkeypatch.setattr(EnsembleResult, "_means", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shared = [observable_series(res, name) for name in OBSERVABLE_NAMES]
        assert calls == [res]
        fresh = [observable_series(dataclasses.replace(res), name)
                 for name in OBSERVABLE_NAMES]
    assert len(calls) == 1 + len(OBSERVABLE_NAMES)
    for a, b in zip(shared, fresh):
        for field in ("mean", "stderr", "live_fraction", "n_batches_used"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    first, again = res.moment_means(), res.moment_means()
    assert first is not again
    assert all(first[k] is again[k] for k in MONOMIALS)
    with pytest.raises(ValueError):
        first["alpha"][0, 0] = 0.0  # shared, so read-only


def test_stderr_scales_with_ensemble_size():
    """Doubling the ensemble shrinks batch errors by about sqrt(2).

    The batch-spread estimate of the standard error has ~5% relative sd
    at 200 batches, so the median ratio over samples sits in a generous
    band around sqrt(2).
    """
    base = dict(dt=2e-4, t_final=0.1, N_a0=100.0, N_b0=0.01, n_batches=200,
                sample_interval=25, master_seed=42)
    params = SystemParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.constant(1.0))
    small = run_ensemble("hybrid", params,
                         EnsembleConfig(n_trajectories=1000, **base))
    large = run_ensemble("hybrid", params,
                         EnsembleConfig(n_trajectories=2000, **base))
    se_small = observable_series(small, name="X_a").stderr
    se_large = observable_series(large, name="X_a").stderr
    keep = np.isfinite(se_small) & np.isfinite(se_large) & (se_large > 0)
    ratio = np.median(se_small[keep] / se_large[keep])
    assert 1.25 <= ratio <= 1.6


def test_number_estimate_matches_initial_occupation():
    cfg = EnsembleConfig(n_trajectories=400, dt=1e-4, t_final=0.05,
                         N_a0=100.0, N_b0=0.01, n_batches=10,
                         sample_interval=100, master_seed=71)
    params = SystemParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.constant(1.0))
    res = run_ensemble("hybrid", params, cfg)
    series = observable_series(res, name="N_a")
    assert np.all(series.live_fraction == 1.0)
    assert np.all(np.abs(series.mean - 100.0) <= 4.0 * series.stderr)


# ---------------------------------------------------------------------------
# breakdown detection
# ---------------------------------------------------------------------------


def flat_series(n=100, stderr=None, live=None):
    times = np.linspace(0.0, 1.0, n)
    return ObservableSeries(
        name="X_a", method="positive_p", times=times,
        mean=np.zeros(n),
        stderr=np.full(n, 0.01) if stderr is None else stderr,
        live_fraction=np.ones(n) if live is None else live,
        n_batches_used=np.full(n, 10), exact=np.zeros(n))


def test_detector_stays_quiet_on_flat_noise():
    assert detect_blowup(flat_series()) is None


def test_detector_fires_on_error_spike():
    se = np.full(100, 0.01)
    se[60:] = 1.0
    series = flat_series(stderr=se)
    assert detect_blowup(series) == pytest.approx(series.times[60])


def test_detector_fires_on_live_fraction_dip():
    live = np.ones(100)
    live[30:] = 0.99
    series = flat_series(live=live)
    assert detect_blowup(series) == pytest.approx(series.times[30])


def test_detector_reports_the_earlier_signal():
    se = np.full(100, 0.01)
    se[60:] = 1.0
    live = np.ones(100)
    live[30:] = 0.99
    series = flat_series(stderr=se, live=live)
    assert detect_blowup(series) == pytest.approx(series.times[30])


def test_detector_ignores_a_noisy_start():
    # huge stderr at the very first samples cannot trigger the ratio rule
    se = np.full(100, 0.01)
    se[0] = 5.0
    assert detect_blowup(flat_series(stderr=se)) is None


def _detect_blowup_loop(series, window=BLOWUP_WINDOW, factor=BLOWUP_FACTOR):
    """The per-sample loop ``detect_blowup`` replaced, kept as a reference."""
    candidates = []
    lf = np.asarray(series.live_fraction, dtype=float)
    below = np.nonzero(lf < 0.999)[0]
    if below.size:
        candidates.append(float(series.times[below[0]]))

    se = np.asarray(series.stderr, dtype=float)
    for i in range(len(se)):
        prev = se[max(0, i - window):i]
        prev = prev[np.isfinite(prev)]
        if prev.size < 3:
            continue
        med = float(np.median(prev))
        if med <= 0.0:
            continue
        if np.isfinite(se[i]) and se[i] > factor * med:
            candidates.append(float(series.times[i]))
            break

    return min(candidates) if candidates else None


@pytest.mark.parametrize("seed", [1, 3, 5, 20])
def test_detector_matches_the_per_sample_loop(seed):
    """1,000 random series per seed, with NaN, +-inf, zeros and negatives,
    at the module's window and factor."""
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.01])
    fired = 0
    for _ in range(1000):
        n = int(rng.integers(0, 60))
        se = rng.lognormal(-4.0, 1.5, n)
        pick = rng.random(n) < rng.uniform(0.0, 0.5)
        se[pick] = rng.choice(specials, int(pick.sum()))
        if rng.random() < 0.2:
            se[:int(rng.integers(0, n + 1))] = 0.0
        live = np.ones(n)
        if rng.random() < 0.2:
            live[int(rng.integers(0, n + 1)):] = 0.99
        series = flat_series(n, stderr=se, live=live)
        expected = _detect_blowup_loop(series)
        assert detect_blowup(series) == expected
        fired += expected is not None
    assert fired > 100


def _fires_after(window, value):
    """Whether ``value`` fires the error rule right after ``window``."""
    se = np.array([*window, value], dtype=float)
    series = flat_series(len(se), stderr=se)
    t = detect_blowup(series)
    assert t is None or t == series.times[-1]
    return t is not None


@pytest.mark.parametrize("window,quiet,fires", [
    ([1, 2, 4, 8], 25, 31),  # even count: (2 + 4) / 2 = 3, so 10 * 3 = 30
    ([1, 2, 4], 19, 21),  # odd count: the middle value 2, so 20
    # +-inf are read as NaN, so each window is the finite [1, 2, 4] again.
    ([1, math.inf, 2, 4, math.inf], 19, 21),
    ([-math.inf, 1, 2, -math.inf, 4], 19, 21),
], ids=["even", "odd", "inf", "minus_inf"])
def test_detector_median_of_either_parity(window, quiet, fires):
    assert BLOWUP_FACTOR == 10.0
    assert not _fires_after(window, quiet)
    assert _fires_after(window, fires)


@pytest.mark.parametrize("window", [[1], [1, 2], [math.nan, 1, math.inf, 2],
                                    [math.nan] * 5])
def test_detector_needs_three_finite_values_in_its_window(window):
    assert not _fires_after(window, 1e300)


def test_hybrid_survives_past_the_positive_p_horizon():
    """In the strong-Kerr regime the mixed method holds for a couple of
    Kerr times while pure positive-P statistics break almost immediately."""
    params = SystemParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.constant(1.0))
    pp_cfg = EnsembleConfig(n_trajectories=200, dt=1e-4, t_final=0.3,
                            N_a0=100.0, N_b0=0.01, n_batches=10,
                            sample_interval=50, master_seed=52)
    pp_time = detect_blowup(observable_series(
        run_ensemble("positive_p", params, pp_cfg), name="X_a"))
    assert pp_time is not None and pp_time <= 0.1

    hy_cfg = EnsembleConfig(n_trajectories=100, dt=1e-4, t_final=3.2,
                            N_a0=100.0, N_b0=0.01, n_batches=10,
                            sample_interval=200, master_seed=53)
    hy_time = detect_blowup(observable_series(
        run_ensemble("hybrid", params, hy_cfg), name="X_a"))
    assert hy_time is None or 2.0 <= hy_time <= 3.2
