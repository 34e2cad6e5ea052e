"""Value types, the coupling schedule, and config validation."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasesde as ps
from phasesde.core import METHOD_TAGS


# Offsets from a grid point, in units of dt: on the 1e-9 tolerance, either
# side of it, or anywhere in the step.
_NEAR = st.sampled_from([-2e-9, -1e-9, -0.5e-9, 0.0, 0.5e-9, 1e-9, 2e-9]) \
    | st.floats(0.0, 1.0)


@st.composite
def plan_inputs(draw):
    """A config of up to 31 steps and a schedule whose breakpoints lie on,
    near or between grid points and t_final, several to a step at times;
    such a schedule need not pass validate_config."""
    dt = draw(st.sampled_from([1e-4, 1e-3, 0.1, 0.37]))
    t_final = max(0.0, (draw(st.integers(0, 30)) + draw(_NEAR)) * dt)
    breaks = draw(st.lists(
        st.tuples(st.integers(0, 31), _NEAR).map(lambda p: (p[0] + p[1]) * dt)
        | _NEAR.map(lambda off: t_final + off * dt), max_size=6))
    ends = sorted({b for b in breaks if b > 0}) + [math.inf]
    values = draw(st.lists(st.floats(-3, 3), min_size=len(ends),
                           max_size=len(ends)))
    cfg = ps.EnsembleConfig(n_trajectories=1, dt=dt, t_final=t_final,
                            N_a0=1.0, N_b0=0.0, n_batches=1,
                            sample_interval=draw(st.integers(1, 7)))
    return cfg, tuple(zip(ends, values))


class TestCouplingSchedule:
    def test_constant(self):
        s = ps.CouplingSchedule.constant(0.7)
        assert s.segments == ((math.inf, 0.7),)
        assert s.breakpoints() == ()
        assert s.violations() == []

    def test_switch_off_is_right_continuous(self):
        s = ps.CouplingSchedule.switched(1.0, t_off=0.1)
        # the segment ending at 0.1 holds g up to, not at, the breakpoint
        assert s.segments == ((0.1, 1.0), (math.inf, 0.0))
        assert s.breakpoints() == (0.1,)
        assert s.violations() == []

    def test_violations_name_an_empty_schedule(self):
        assert ps.CouplingSchedule(()).violations() == [
            "coupling must have at least one segment"]

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

    def test_violations_name_a_non_real_value(self):
        """A non-real value is kept as given, for violations() to name."""
        schedule = ps.CouplingSchedule(((math.inf, "x"),))
        assert schedule.segments == ((math.inf, "x"),)
        assert schedule.violations() == ["coupling g values must be finite "
                                         "reals"]

    def test_violations_name_a_segment_that_is_not_a_pair(self):
        """A segment of three values is kept as given, for violations()
        to name; it is never unpacked into a bare ValueError."""
        schedule = ps.CouplingSchedule(((0.1, 1.0, 2.0), (math.inf, 0.0)))
        assert schedule.segments[0] == (0.1, 1.0, 2.0)
        assert schedule.violations() == ["coupling segments must be "
                                         "(t_end, g) pairs"]
        params = ps.SystemParams(0.0, 0.0, 1.0, 1.0, schedule)
        with pytest.raises(ps.ConfigError, match="pairs"):
            ps.validate_config(_good_config(), ps.MethodSpec.of("hybrid"),
                               params)

    def test_valid_schedules_have_no_violations(self):
        for schedule in (ps.CouplingSchedule.switched(1.0, 0.1),
                         ps.CouplingSchedule(((1e-4, 1.0), (math.inf, 0.5))),
                         ps.CouplingSchedule(((0.05, 1.0), (0.1, 0.5),
                                              (math.inf, 0.0)))):
            assert schedule.violations() == []

    @settings(max_examples=300, deadline=None)
    @given(inputs=plan_inputs())
    def test_plan_substeps_match_linear_scan(self, inputs):
        """Each substep takes the g of the segment holding its midpoint
        (right-continuous: a segment holds g up to, not at, its t_end);
        the substeps end at every breakpoint more than 1e-9*dt inside a
        step and at t_final, and samples land on substep ends."""
        cfg, segments = inputs
        dt, t_final = cfg.dt, cfg.t_final
        params = ps.SystemParams(0.0, 0.0, 1.0, 1.0,
                                 ps.CouplingSchedule(segments))
        plan = ps.build_step_plan(cfg, params)
        t_end, tol = plan.sub_t_end, 1e-9 * dt
        start = np.concatenate(([0.0], t_end[:-1]))
        assert plan.sub_dt.tobytes() == (t_end - start).tobytes()
        for lo, hi, g in zip(start, t_end, plan.sub_g):
            mid = 0.5 * (lo + hi)
            assert g == next(v for end, v in segments if mid < end)

        n = int(math.floor(t_final / dt + 1e-9))
        grid = [k * dt for k in range(n + 1)]
        steps = [(k * dt, min((k + 1) * dt, t_final)) for k in range(n)]
        if t_final - n * dt > tol:
            steps.append((n * dt, t_final))
        if t_final > tol:
            assert (np.diff(t_end) > 0).all()
            assert abs(t_end[-1] - t_final) <= 2 * tol  # tol, plus rounding
            assert plan.ends[-1] == plan.n_substeps
        else:
            assert plan.n_substeps == 0 and plan.ends.size == 0
        breaks = params.coupling.breakpoints()
        for b in breaks:
            inside = any(lo + tol < b < hi - tol for lo, hi in steps)
            assert (b in t_end) == inside or b in {*grid, t_final}
        assert set(t_end) <= {*grid, *breaks, t_final}
        # Samples every sample_interval nominal steps, then at the end.
        marks = grid[cfg.sample_interval::cfg.sample_interval]
        if plan.n_substeps and marks[-1:] != [t_end[-1]]:
            marks.append(t_end[-1])
        assert plan.sample_times[1:].tolist() == marks

        assert plan.ends.dtype == np.int64
        assert (np.diff(plan.ends, prepend=0) > 0).all()
        assert plan.sample_times.tobytes() == np.concatenate(
            ([0.0], t_end[plan.ends - 1])).tobytes()


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
    (dict(N_a0=2.0 ** 398), "N_a0"),
    (dict(N_b0=2 ** 398), "N_b0"),
    (dict(N_a0=10 ** 400), "N_a0"),
    (dict(blowup_threshold=2.0 ** 200), "blowup_threshold"),
    (dict(N_a0=100.0, blowup_threshold=2.0 ** 200 / 10), "blowup_threshold"),
])
def test_config_field_violations(overrides, needle):
    violations = _good_config(**overrides).violations()
    assert any(needle in v for v in violations), violations


def test_config_amplitude_bounds_accept_values_just_below():
    """The last values below the bounds pass: blowup_threshold times
    max(1, sqrt(N_a0)) just below 2**200, N_a0 and N_b0 just below
    2**398; an integer N_a0 beyond the float range is one violation."""
    below = np.nextafter(2.0 ** 200, 0.0)
    assert _good_config(N_a0=0.25, blowup_threshold=below).violations() == []
    top = np.nextafter(2.0 ** 398, 0.0)
    assert _good_config(N_a0=top, N_b0=top,
                        blowup_threshold=1.0).violations() == []
    assert _good_config(N_a0=10 ** 400).violations() == [
        "N_a0 must be a non-negative real below 2**398"]


def test_config_rejects_a_step_count_beyond_the_float_range():
    """t_final / dt must be finite, or the step plan cannot count its
    steps; at t_final = 0 a subnormal dt takes none and stays valid."""
    assert _good_config(dt=1e-320).violations() == [
        "t_final / dt must be finite"]
    assert _good_config(dt=1e-320, t_final=0.0).violations() == []


def test_config_bounds_the_step_count():
    """t_final / dt may reach MAX_STEPS (10**6), with the step plan's
    rounding, but not pass it: the plan lists every substep in Python."""
    assert ps.core.MAX_STEPS == 10 ** 6
    assert _good_config(t_final=100.0, dt=1e-4).violations() == []
    assert 0.1 / 1e-7 > 10 ** 6  # by one ulp; the plan takes 10**6 steps
    assert _good_config(t_final=0.1, dt=1e-7).violations() == []
    assert _good_config(t_final=100.0001, dt=1e-4).violations() == [
        "t_final / dt must be at most 1000000"]


@pytest.mark.parametrize("field", ["n_trajectories", "n_batches",
                                   "sample_interval", "master_seed"])
def test_config_integer_fields_reject_a_bool(field):
    """A bool is an int to isinstance, but neither a count nor a seed."""
    violations = _good_config(**{field: True}).violations()
    assert violations == [f"{field} must be a "
                          + ("64-bit unsigned" if field == "master_seed"
                             else "positive") + " integer"], violations


@pytest.mark.parametrize("value", [True, "0.1", None, 10 ** 400],
                         ids=["bool", "str", "none", "beyond_float"])
@pytest.mark.parametrize("field", ["dt", "t_final", "N_a0", "N_b0",
                                   "blowup_threshold", "omega_a", "omega_b",
                                   "chi_a", "chi_b", "t_end", "g"])
def test_config_real_fields_reject_a_bool_or_a_non_real(kerr_params, field,
                                                        value):
    """A bool is a real to isinstance, but no physical value; a string or
    None is no real; and an integer beyond the float range has no float:
    each is one ConfigError line naming its field, never a repaired value,
    a TypeError or an OverflowError."""
    config, params = _good_config(), kerr_params
    if field in ("t_end", "g"):
        segment = {"t_end": 0.05, "g": 1.0, field: value}
        params = dataclasses.replace(params, coupling=ps.CouplingSchedule(
            ((segment["t_end"], segment["g"]), (math.inf, 0.0))))
    elif field in ("omega_a", "omega_b", "chi_a", "chi_b"):
        params = dataclasses.replace(params, **{field: value})
    else:
        config = _good_config(**{field: value})
    with pytest.raises(ps.ConfigError) as excinfo:
        ps.validate_config(config, ps.MethodSpec.of("hybrid"), params)
    [violation] = excinfo.value.violations
    assert field in violation, violation


@pytest.mark.parametrize("field,value", [("dt", "0.1"), ("N_a0", None)])
def test_run_ensemble_reports_a_non_real_field(kerr_params, field, value):
    with pytest.raises(ps.ConfigError, match=field):
        ps.run_ensemble("hybrid", kerr_params, _good_config(**{field: value}))


def test_good_config_has_no_violations():
    assert _good_config().violations() == []


def test_step_must_fit_into_coupling_segments(kerr_params):
    params = ps.SystemParams(0.0, 0.0, 1.0, 1.0,
                             ps.CouplingSchedule.switched(1.0, t_off=0.1))
    config = _good_config(dt=0.2, sample_interval=1)
    with pytest.raises(ps.ConfigError) as excinfo:
        ps.validate_config(config, ps.MethodSpec.of("hybrid"), params)
    assert any("segment" in v for v in excinfo.value.violations)
    # the same dt is fine on an unswitched schedule
    ps.validate_config(_good_config(dt=0.05), ps.MethodSpec.of("hybrid"),
                       kerr_params)


def test_validate_config_reports_everything_at_once(kerr_params):
    config = _good_config(dt=-1.0, N_a0=-2.0)
    with pytest.raises(ps.ConfigError) as excinfo:
        ps.validate_config(config, ps.MethodSpec.of("hybrid"), kerr_params)
    assert len(excinfo.value.violations) >= 2
    assert "dt" in str(excinfo.value)


def test_validate_config_reports_a_method_name_for_a_spec(kerr_params):
    """The method is a MethodSpec, never its bare name."""
    with pytest.raises(ps.ConfigError) as excinfo:
        ps.validate_config(_good_config(), "hybrid", kerr_params)
    assert excinfo.value.violations == ["method must be a MethodSpec"]


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
    # Live trajectories over all 3, at each sample.
    assert res.live_fraction.tolist() == [1.0, 2 / 3]


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
