"""Value types, the coupling schedule, and config validation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasesde as ps
from phasesde.core import METHOD_TAGS


class TestCouplingSchedule:
    def test_constant(self):
        s = ps.CouplingSchedule.constant(0.7)
        assert s.g_at(0.0) == 0.7
        assert s.g_at(1e9) == 0.7
        assert s.breakpoints() == ()
        assert s.violations() == []

    def test_switch_off_is_right_continuous(self):
        s = ps.CouplingSchedule.switched(1.0, t_off=0.1)
        assert s.g_at(0.0) == 1.0
        assert s.g_at(0.1 - 1e-12) == 1.0
        # at the breakpoint itself the following segment already applies
        assert s.g_at(0.1) == 0.0
        assert s.g_at(0.5) == 0.0
        assert s.breakpoints() == (0.1,)

    def test_violations(self):
        out_of_order = ps.CouplingSchedule(((0.2, 1.0), (0.1, 0.0), (math.inf, 0.0)))
        assert any("increasing" in v for v in out_of_order.violations())
        unterminated = ps.CouplingSchedule(((0.2, 1.0),))
        assert unterminated.violations()

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0, 0.0],
                             ids=["nan", "inf", "negative", "zero"])
    def test_violations_reject_a_bad_t_end_before_the_last(self, t_end):
        bad = ps.CouplingSchedule(((t_end, 1.0), (math.inf, 0.0)))
        assert any("finite and positive" in v for v in bad.violations())
        params = ps.SystemParams(0.0, -100.0, 1.0, 1.0, bad)
        config = ps.EnsembleConfig(n_trajectories=10, dt=1e-4, t_final=0.5,
                                   N_a0=100.0, N_b0=0.01)
        with pytest.raises(ps.ConfigError, match="finite and positive"):
            ps.validate_config(config, ps.MethodSpec.of("hybrid"), params)

    def test_valid_schedules_have_no_violations(self):
        for schedule in (ps.CouplingSchedule.switched(1.0, 0.1),
                         ps.CouplingSchedule.switched(1.0, 1e-4, 0.5),
                         ps.CouplingSchedule(((0.05, 1.0), (0.1, 0.5),
                                              (math.inf, 0.0)))):
            assert schedule.violations() == []

    @settings(max_examples=50, deadline=None)
    @given(
        ends=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=4, unique=True),
        values=st.lists(st.floats(-3, 3), min_size=5, max_size=5),
        t=st.floats(0.0, 12.0),
    )
    def test_lookup_matches_linear_scan(self, ends, values, t):
        bounds = sorted(ends) + [math.inf]
        segments = tuple(zip(bounds, values[: len(bounds)]))
        schedule = ps.CouplingSchedule(segments)
        for t_end, g in segments:
            if t < t_end:
                expected = g
                break
        assert schedule.g_at(t) == expected


def test_method_spec_of_matches_tags():
    for name, (r_a, r_b) in METHOD_TAGS.items():
        spec = ps.MethodSpec.of(name)
        assert (spec.method, spec.r_a, spec.r_b) == (name, r_a, r_b)


def test_method_spec_rejects_inconsistent_tags():
    """The method fixes the tags: they cannot be passed, only read."""
    with pytest.raises(TypeError):
        ps.MethodSpec("hybrid", 1, 1)
    with pytest.raises(ValueError):
        ps.MethodSpec.of("heisenberg")
    with pytest.raises(ValueError):
        ps.MethodSpec("heisenberg")


def _good_config(**overrides):
    base = dict(n_trajectories=100, dt=1e-3, t_final=0.1, N_a0=1.0, N_b0=0.0,
                n_batches=10, sample_interval=10, master_seed=1,
                blowup_threshold=1e6)
    base.update(overrides)
    return ps.EnsembleConfig(**base)


@pytest.mark.parametrize("overrides,needle", [
    (dict(n_trajectories=0), "n_trajectories"),
    (dict(n_batches=0), "n_batches"),
    (dict(n_batches=3), "divide"),
    (dict(dt=0.0), "dt"),
    (dict(dt=math.nan), "dt"),
    (dict(t_final=-1.0), "t_final"),
    (dict(sample_interval=0), "sample_interval"),
    (dict(master_seed=-1), "master_seed"),
    (dict(master_seed=2 ** 64), "master_seed"),
    (dict(N_a0=-0.5), "N_a0"),
    (dict(N_b0=math.inf), "N_b0"),
    (dict(blowup_threshold=0.0), "blowup_threshold"),
])
def test_config_field_violations(overrides, needle):
    violations = _good_config(**overrides).violations()
    assert any(needle in v for v in violations), violations


def test_good_config_has_no_violations():
    assert _good_config().violations() == []


def test_step_must_fit_into_coupling_segments(kerr_params):
    params = ps.SystemParams(0.0, 0.0, 1.0, 1.0,
                             ps.CouplingSchedule.switched(1.0, t_off=0.1))
    config = _good_config(dt=0.2, sample_interval=1)
    violations = ps.config_violations(config, ps.MethodSpec.of("hybrid"), params)
    assert any("segment" in v for v in violations)
    # the same dt is fine on an unswitched schedule
    ok = ps.config_violations(_good_config(dt=0.05), ps.MethodSpec.of("hybrid"),
                              kerr_params)
    assert ok == []


def test_validate_config_reports_everything_at_once(kerr_params):
    config = _good_config(dt=-1.0, N_a0=-2.0)
    with pytest.raises(ps.ConfigError) as excinfo:
        ps.validate_config(config, ps.MethodSpec.of("hybrid"), kerr_params)
    assert len(excinfo.value.violations) >= 2
    assert "dt" in str(excinfo.value)


def _toy_result(kerr_params):
    n_monomials = len(ps.MONOMIALS)
    sums = np.zeros((2, 2, n_monomials), dtype=complex)
    sums[0, 0, :] = 4.0 + 2j
    sums[0, 1, :] = 3.0
    sums[1, 0, :] = 6.0
    live = np.array([[2, 1], [2, 0]], dtype=np.int64)
    return ps.EnsembleResult(
        times=np.array([0.0, 0.1]),
        sums=sums,
        live_counts=live,
        live_fraction=np.array([1.0, 2 / 3]),
        blowup_times=np.array([np.nan, np.nan, 0.05]),
        method=ps.MethodSpec.of("hybrid"),
        params=kerr_params,
        config=_good_config(n_trajectories=3, n_batches=1),
    )


def test_result_batch_means_divide_by_live_counts(kerr_params):
    res = _toy_result(kerr_params)
    means = res.moment_means()
    assert means["alpha"][0, 0] == pytest.approx(2.0 + 1.0j)
    assert means["alpha"][0, 1] == pytest.approx(3.0)


def test_result_dead_batch_means_are_nan(kerr_params):
    res = _toy_result(kerr_params)
    means = res.moment_means()
    assert means["beta"][1, 0] == pytest.approx(3.0)
    assert np.isnan(means["beta"][1, 1].real)
    assert res.n_samples == 2


def test_package_exports_every_module_name():
    """phasesde.__all__ is the union of the modules' __all__ lists."""
    from phasesde import core, dynamics, integrator, oracle, representations, stats
    modules = (core, representations, dynamics, integrator, oracle, stats)
    exported = [name for m in modules for name in m.__all__]
    assert ps.__all__ == ["__version__", *exported]
    assert len(set(ps.__all__)) == len(ps.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(ps, name) is getattr(module, name), name
