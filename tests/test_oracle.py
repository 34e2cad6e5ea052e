"""Closed-form reference curves and the number-basis cross-check."""
import hashlib
import math

import numpy as np
import pytest
from scipy.special import pdtrc

from phasesde import (
    MONOMIALS,
    OBSERVABLE_NAMES,
    CouplingSchedule,
    EnsembleConfig,
    SystemParams,
    oracle,
)
from phasesde.oracle import (
    OracleParams,
    accumulated_coupling_phase,
    default_cutoff,
    exact_series,
    fock_expect,
    fock_symmetrized,
    fock_word_expect,
)

KERR = OracleParams(omega_a=0.0, omega_b=0.0, chi_a=1.0, chi_b=1.0, g=1.0,
                    N_a0=1.0, N_b0=0.25)


def test_quadratures_start_on_the_real_axis():
    for n0 in (0.25, 1.0, 4.0, 100.0):
        p = OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, n0, 0.01)
        x, y = exact_series("X_a", 0.0, p), exact_series("Y_a", 0.0, p)
        assert x == pytest.approx(math.sqrt(n0), abs=1e-14)
        assert y == pytest.approx(0.0, abs=1e-14)


def test_linear_oscillator_is_a_rotating_coherent_state():
    """chi = g = 0 leaves only the frame rotation exp(-i omega t)."""
    p = OracleParams(omega_a=0.4, omega_b=0.0, chi_a=0.0, chi_b=0.0, g=0.0,
                     N_a0=100.0, N_b0=0.0)
    t = np.linspace(0.0, 12.0, 97)
    x, y = exact_series("X_a", t, p), exact_series("Y_a", t, p)
    np.testing.assert_allclose(x, 10.0 * np.cos(0.4 * t), atol=1e-12)
    np.testing.assert_allclose(y, -10.0 * np.sin(0.4 * t), atol=1e-12)


def test_kerr_revival_is_two_pi_periodic():
    """Integer chi makes every phase factor 2*pi periodic in t."""
    t = np.array([0.13, 0.57, 1.9])
    for name in OBSERVABLE_NAMES:
        early = exact_series(name, t, KERR)
        late = exact_series(name, t + 2.0 * math.pi, KERR)
        np.testing.assert_allclose(late, early, atol=1e-12)


def test_coupling_phase_freezes_after_switch_off():
    p = OracleParams(0.0, -100.0, 1.0, 1.0,
                     CouplingSchedule.switched(1.0, 0.1), 100.0, 0.01)
    assert accumulated_coupling_phase(0.05, p) == pytest.approx(0.05)
    assert accumulated_coupling_phase(0.1, p) == pytest.approx(0.1)
    assert accumulated_coupling_phase(5.0, p) == pytest.approx(0.1)


def test_observables_are_continuous_at_the_switch():
    """Only theta(t) carries the coupling, so curves are C^0 at tau."""
    p = OracleParams(0.0, -100.0, 1.0, 1.0,
                     CouplingSchedule.switched(1.0, 0.1), 100.0, 0.01)
    eps = 1e-9
    for name in OBSERVABLE_NAMES:
        left = float(exact_series(name, 0.1 - eps, p))
        right = float(exact_series(name, 0.1 + eps, p))
        # slope is O(|omega_b| * amplitude), so allow ~1e-6 over 2e-9
        assert right == pytest.approx(left, abs=2e-6, rel=1e-6)


def test_correlation_is_bounded_and_vanishes_without_coupling():
    t = np.linspace(0.0, 2.0, 50)
    c = exact_series("C_Na_Yb", t, OracleParams(
        0.0, -100.0, 1.0, 1.0, CouplingSchedule.switched(1.0, 0.1), 100.0,
        0.01))
    assert np.all(np.abs(c) <= 1.0 + 1e-12)
    c0 = exact_series("C_Na_Yb", t,
                      OracleParams(0.0, 0.0, 1.0, 1.0, 0.0, 4.0, 0.25))
    np.testing.assert_allclose(c0, 0.0, atol=1e-12)


def test_exact_series_rejects_unknown_names():
    with pytest.raises(KeyError):
        exact_series("Z_b", 0.0, KERR)


def test_oracle_params_validate():
    with pytest.raises(ValueError):
        OracleParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule.switched(1.0, -0.1),
                     1.0, 0.25)
    with pytest.raises(ValueError):
        OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, -1.0, 0.25)


def switched_at(tau):
    """A schedule switched off at ``tau``, for the rejection cases."""
    return CouplingSchedule.switched(1.0, tau)


@pytest.mark.parametrize("field, value", [
    ("omega_a", math.nan), ("omega_b", math.inf), ("chi_a", -math.inf),
    ("chi_b", math.nan), ("g", math.nan), ("N_a0", math.inf),
    ("N_b0", math.nan),
    pytest.param("g", switched_at(math.nan), id="tau-nan"),
    pytest.param("g", switched_at(math.inf), id="tau-inf"),
    pytest.param("g", 10 ** 400, id="g-beyond_float"),
    pytest.param("g", switched_at(10 ** 400), id="tau-beyond_float")])
def test_oracle_params_reject_non_finite_values(field, value):
    """A NaN or infinite input used to give NaN curves without an error,
    and an int beyond the float range an OverflowError.  The tau cases
    are schedules switched off at a non-finite time."""
    good = dict(omega_a=0.0, omega_b=0.0, chi_a=1.0, chi_b=1.0,
                g=switched_at(0.5), N_a0=1.0, N_b0=0.25)
    with pytest.raises(ValueError):
        OracleParams(**{**good, field: value})


def test_coupling_phase_by_hand():
    """theta(t) of g = 1 until 0.05, -2 until 0.1, then 0.5."""
    p = OracleParams(0.0, 0.0, 1.0, 1.0, CouplingSchedule(
        ((0.05, 1.0), (0.1, -2.0), (math.inf, 0.5))), 1.0, 0.25)
    by_hand = {0.0: 0.0, 0.02: 0.02, 0.05: 0.05, 0.075: 0.0, 0.1: -0.05,
               0.2: 0.0, 1.1: 0.45}
    theta = accumulated_coupling_phase(list(by_hand), p)
    np.testing.assert_allclose(theta, list(by_hand.values()), atol=1e-15)


def test_coupling_phase_of_each_schedule_shape():
    """Every schedule gives a curve; one that merges to another gives its
    bytes, and a constant or once-switched one the forms g*t and
    g*min(t, t_off)."""
    t = np.concatenate([[-0.0], np.linspace(0.0, 0.5, 51)])

    def params(*segments):
        config = EnsembleConfig(n_trajectories=10, dt=1e-3, t_final=0.5,
                                N_a0=1.0, N_b0=0.25)
        return OracleParams.of(SystemParams(
            0.0, 0.0, 1.0, 1.0, CouplingSchedule(segments)), config)

    def curves(p):
        return b"".join(exact_series(name, t, p).tobytes()
                        for name in OBSERVABLE_NAMES)

    constant = params((math.inf, 2.0))
    assert constant == OracleParams(0.0, 0.0, 1.0, 1.0, 2.0, 1.0, 0.25)
    assert accumulated_coupling_phase(t, constant).tobytes() == (
        2.0 * t).tobytes()

    switched = params((0.1, 1.0), (math.inf, 0.0))
    assert switched.g == CouplingSchedule.switched(1.0, 0.1)
    assert accumulated_coupling_phase(t, switched).tobytes() == (
        np.minimum(t, 0.1)).tobytes()

    # a nonzero coupling after the first segment has a curve too
    theta = accumulated_coupling_phase(
        t, params((0.1, 1.0), (math.inf, 0.5)))
    np.testing.assert_allclose(
        theta, np.where(t < 0.1, t, 0.1 + 0.5 * (t - 0.1)), atol=1e-15)
    p = params((0.1, 1.0), (0.2, 0.0), (math.inf, 1.0))
    theta = accumulated_coupling_phase(t, p)
    np.testing.assert_allclose(
        theta, np.minimum(t, 0.1) + np.maximum(t - 0.2, 0.0), atol=1e-15)
    assert all(np.isfinite(exact_series(name, t, p)).all()
               for name in OBSERVABLE_NAMES)

    # adjacent segments with equal g give the bytes of their merged form
    merged = params((0.1, 1.0), (math.inf, 1.0))
    assert curves(merged) == curves(params((math.inf, 1.0)))
    merged = params((0.1, 1.0), (0.2, 0.0), (math.inf, 0.0))
    assert curves(merged) == curves(switched)
    merged = params((0.05, 1.0), (0.1, 1.0), (math.inf, 0.0))
    assert curves(merged) == curves(switched)


# Each monomial's normally ordered word as ladder words on modes a and b.
NORMAL_WORDS = {
    "alpha": ("-", ""),
    "alpha_plus": ("+", ""),
    "beta": ("", "-"),
    "beta_plus": ("", "+"),
    "alpha_plus_alpha": ("+-", ""),
    "beta_plus_beta": ("", "+-"),
    "alpha_plus_alpha_sq": ("++--", ""),
    "beta_sq": ("", "--"),
    "beta_plus_sq": ("", "++"),
    "alpha_plus_alpha_beta": ("+-", "-"),
    "alpha_plus_alpha_beta_plus": ("+-", "+"),
}


def test_word_table_follows_the_monomials():
    assert tuple(oracle._WORDS) == MONOMIALS
    assert tuple(NORMAL_WORDS) == MONOMIALS


@pytest.mark.parametrize("n_a0", [0.0, 1.0, 100.0])
def test_monomial_closed_forms_match_fock_words(n_a0):
    """Each monomial's closed form is the Fock sum of its normally ordered
    word, with both frame frequencies, unequal Kerr terms, and times before
    and after the switch-off."""
    p = OracleParams(omega_a=0.7, omega_b=-3.0, chi_a=1.0, chi_b=0.6,
                     g=CouplingSchedule.switched(0.8, 0.3), N_a0=n_a0,
                     N_b0=0.25)
    for t in (0.0, 0.1, 0.3, 0.45, 1.7):
        for name in MONOMIALS:
            word = oracle._WORDS[name]
            got = complex(oracle._word_mean(word, t, p))
            want = fock_word_expect(*NORMAL_WORDS[name], t, p)
            # |<word>| <= N_a0^((j_a+k_a)/2) N_b0^((j_b+k_b)/2)
            scale = n_a0 ** ((word[0] + word[1]) / 2) * 0.25 ** (
                (word[2] + word[3]) / 2)
            assert abs(got - want) <= 1e-10 * max(1.0, scale), (name, t)


# ---------------------------------------------------------------------------
# number-basis evaluator
# ---------------------------------------------------------------------------


def test_number_moments_of_the_initial_state():
    for n0 in (0.01, 0.25, 4.0, 100.0):
        p = OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, n0, 0.0)
        assert fock_expect("N_a", 0.7, p) == pytest.approx(n0, rel=1e-10, abs=1e-12)
        var = fock_expect("N_a2", 0.7, p) - fock_expect("N_a", 0.7, p) ** 2
        assert var == pytest.approx(n0, rel=1e-9, abs=1e-10)


def test_fock_matches_closed_forms_on_a_small_grid():
    for t in (0.0, 0.3, 1.0):
        for name, fock_name in (("X_a", "X_a"), ("Y_b", "Y_b"),
                                ("N_a_Y_b", "N_aY_b")):
            exact = float(exact_series(name, t, KERR))
            assert fock_expect(fock_name, t, KERR) == pytest.approx(
                exact, rel=1e-9, abs=1e-11)


def test_word_evaluator_handles_vacuum_annihilation():
    vac = OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    assert fock_word_expect("-", "", 0.5, vac) == 0.0
    assert fock_word_expect("-+", "", 0.0, vac) == pytest.approx(1.0)  # a a+ on |0>
    assert fock_word_expect("+-", "", 0.0, vac) == pytest.approx(0.0)


def test_word_evaluator_rejects_bad_input():
    with pytest.raises(ValueError):
        fock_word_expect("+*", "", 0.0, KERR)


def test_fock_expect_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown Fock observable 'N_b'"):
        fock_expect("N_b", 0.3, KERR)


# Physics with occupations of 0, small and large, a constant, a switched and
# a three-segment coupling, and nonzero omegas.
WORD_PHYSICS = [
    OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0),
    OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, 100.0, 0.01),
    OracleParams(0.3, -0.7, 1.1, 0.9, CouplingSchedule(
        ((0.0123, 1.0), (math.inf, 0.6))), 4.0, 0.25),
    OracleParams(1.0, 0.5, 0.2, 0.05, CouplingSchedule(
        ((0.1, 0.0), (0.4, 2.0), (math.inf, 0.0))), 0.0, 9.0),
    OracleParams(-0.4, 0.0, 0.5, 0.0, CouplingSchedule.switched(0.7, 0.2),
                 25.0, 0.0),
]
LADDER_WORDS = ["", "+", "-", "+-", "-+", "++", "--", "+--", "++-",
                "+-+-", "++--"]


def test_fock_words_keep_their_bytes():
    """sha256 of every word pair's value at six times on each physics, as
    the code computed them before each mode's sum was written once."""
    h = hashlib.sha256()
    for p in WORD_PHYSICS:
        for t in (0.0, 0.01, 0.05, 0.2, 0.45, 1.3):
            for word_a in LADDER_WORDS:
                for word_b in LADDER_WORDS:
                    h.update(np.complex128(
                        fock_word_expect(word_a, word_b, t, p)).tobytes())
    assert h.hexdigest() == (
        "cc8be9b9a04c4c0b1c9a3936bb90057aa505dea3b0ee7c88ed96a996d030cee5")


def test_default_cutoff_grows_with_occupation():
    assert default_cutoff(0.0) >= 30
    assert default_cutoff(100.0) >= 100 + 10 * 10 + 30
    assert default_cutoff(100.0) < 400


@pytest.mark.parametrize("occupation, cutoff, tail_cutoff", [
    (0.0, 30, None), (0.01, 32, 4), (1.0, 41, 14), (100.0, 230, 178)])
def test_default_cutoff_at_preset_occupations(occupation, cutoff,
                                              tail_cutoff):
    """The values scipy.stats.poisson gave, at every preset occupation.

    ``tail_cutoff`` is poisson.isf(1e-12, occupation): the Poisson tail
    beyond it is at most 1e-12, and beyond one less it is more.
    """
    assert default_cutoff(occupation) == cutoff
    if tail_cutoff is None:
        return
    assert pdtrc(tail_cutoff, occupation) <= 1e-12
    assert pdtrc(tail_cutoff - 1, occupation) > 1e-12


def test_default_cutoff_leaves_a_negligible_poisson_tail():
    """The Bernstein bound of ``default_cutoff``, checked from 1e-6 to 1e8."""
    for occupation in np.concatenate([[0.0], np.logspace(-6, 8, 2001)]):
        assert pdtrc(default_cutoff(occupation), occupation) <= 1e-12


def test_symmetrized_number_word_gains_half_quantum():
    """avg(a+ a, a a+) = N + 1/2 for any state, here a coherent one."""
    for n0 in (0.25, 4.0):
        p = OracleParams(0.0, 0.0, 1.0, 1.0, 1.0, n0, 0.0)
        value = fock_symmetrized(("+", "-"), (), 0.0, p)
        assert complex(value) == pytest.approx(n0 + 0.5, rel=1e-10)


def test_symmetrized_single_letter_is_the_plain_word():
    value = fock_symmetrized((), ("-",), 0.4, KERR)
    plain = fock_word_expect("", "-", 0.4, KERR)
    assert value == plain
