"""Drift vectors, noise factors, and diffusion factorization checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasesde import CouplingSchedule, PhasePoint, SystemParams
from phasesde.core import METHOD_NAMES
from phasesde.dynamics import (
    FREQUENCIES,
    hybrid_diffusion,
    hybrid_drift,
    hybrid_frequencies,
    hybrid_noise_factor,
    noise_coefficients,
    positive_p_diffusion,
    positive_p_drift,
    positive_p_mode_factor,
    positive_p_noise_factor,
    wigner_frequencies,
    wigner_truncated,
)


def make_params(omega_a=0.0, omega_b=0.0, chi_a=1.0, chi_b=1.0, g=1.0):
    return SystemParams(omega_a, omega_b, chi_a, chi_b,
                        CouplingSchedule.constant(g))


def random_points(rng, n, radius=20.0):
    for _ in range(n):
        z = rng.uniform(-radius, radius, 8)
        yield PhasePoint(complex(z[0], z[1]), complex(z[2], z[3]),
                         complex(z[4], z[5]), complex(z[6], z[7]))


complex_nonzero = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=10.0, allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# drift: hand-checked values
# ---------------------------------------------------------------------------


def test_hybrid_drift_vanishes_at_unit_occupation():
    # alpha_plus*alpha = 1 cancels the Kerr shift and mode b is empty
    p = PhasePoint(1.0, 1.0, 0.0, 0.0)
    d = hybrid_drift(p, make_params(), 1.0)
    assert np.allclose(np.array(d), 0.0, atol=0.0)


def test_hybrid_drift_at_double_occupation():
    p = PhasePoint(1.0, 2.0, 0.0, 0.0)
    d = hybrid_drift(p, make_params(chi_a=1.0, chi_b=0.5, g=1.0), 1.0)
    assert d.d_alpha == pytest.approx(-2.0j, abs=1e-15)
    assert d.d_alpha_plus == pytest.approx(+4.0j, abs=1e-15)
    assert d.d_beta == 0.0
    assert d.d_beta_plus == 0.0


def test_positive_p_drift_keeps_full_occupation_product():
    # no hybrid -1 shift: F_a = 2*chi_a*alpha_plus*alpha at g-neutral point
    p = PhasePoint(1.0, 1.0 + 1.0j, 0.0, 0.0)
    d = positive_p_drift(p, make_params(g=0.0), 0.0)
    assert d.d_alpha == pytest.approx(2.0 - 2.0j, abs=1e-15)
    # +i * (2+2i) * (1+i) = -4
    assert d.d_alpha_plus == pytest.approx(-4.0 + 0.0j, abs=1e-14)


def test_wigner_drift_vanishes_at_unit_amplitude_single_mode():
    p = PhasePoint(1.0, 1.0, 0.0, 0.0)
    d = wigner_truncated(p, make_params(g=0.0), 0.0)
    assert d.d_alpha == 0.0
    assert d.d_alpha_plus == 0.0


def test_hybrid_and_wigner_share_the_a_row():
    """Substituting |beta|^2 - 1/2 for beta_plus*beta maps one F_a to the other."""
    params = make_params(omega_a=0.4, chi_a=0.8, g=1.3)
    rng = np.random.default_rng(11)
    for _ in range(50):
        na = rng.uniform(0.0, 9.0)
        nb = rng.uniform(0.0, 9.0)
        f_hybrid, _ = hybrid_frequencies(na, nb - 0.5, params, 1.3)
        f_wigner, _ = wigner_frequencies(na, nb, params, 1.3)
        assert f_hybrid == f_wigner


@settings(max_examples=60, deadline=None)
@given(a=complex_nonzero, b=complex_nonzero)
def test_drift_is_conjugation_covariant_at_symmetric_points(a, b):
    """At alpha_plus = conj(alpha) the plus drift is the conjugate drift.

    Holds for every method because the effective frequencies are real
    there; this is what keeps classical (conjugate-pair) initial data on
    the classical manifold until noise acts.
    """
    p = PhasePoint(a, np.conj(a), b, np.conj(b))
    params = make_params(omega_a=0.2, omega_b=-0.5, chi_a=0.7, chi_b=0.3, g=0.9)
    for drift in (hybrid_drift, positive_p_drift, wigner_truncated):
        d = drift(p, params, 0.9)
        assert d.d_alpha_plus == pytest.approx(np.conj(d.d_alpha), rel=1e-12)
        assert d.d_beta_plus == pytest.approx(np.conj(d.d_beta), rel=1e-12)


def test_wigner_flow_conserves_occupations():
    rng = np.random.default_rng(3)
    params = make_params(omega_a=1.0, chi_a=2.0, chi_b=0.5, g=0.7)
    for p in random_points(rng, 40, radius=5.0):
        sym = PhasePoint(p.alpha, np.conj(p.alpha), p.beta, np.conj(p.beta))
        d = wigner_truncated(sym, params, 0.7)
        scale = max(1.0, abs(sym.alpha) ** 2, abs(sym.beta) ** 2)
        assert abs(2 * np.real(np.conj(sym.alpha) * d.d_alpha)) < 1e-12 * scale
        assert abs(2 * np.real(np.conj(sym.beta) * d.d_beta)) < 1e-12 * scale


def test_further_truncation_takes_real_part_of_b_occupation():
    p = PhasePoint(1.0, 1.0, 1.0 + 1.0j, 2.0)
    params = make_params()
    point = (p.alpha, p.alpha_plus, p.beta, p.beta_plus)
    f_full = FREQUENCIES["hybrid"](*point, params, 1.0)
    f_trunc = FREQUENCIES["hybrid_truncated"](*point, params, 1.0)
    assert f_trunc == hybrid_frequencies(1.0, 2.0, params, 1.0)
    # beta_plus*beta = 2+2j: dropping the 2j restores a real F_a, so the
    # truncated a-mode drift is conjugation covariant while the full one
    # (hybrid_drift) is not at this non-classical point
    assert np.imag(f_trunc[0]) == 0.0 != np.imag(f_full[0])
    d_full = hybrid_drift(p, params, 1.0)
    assert d_full.d_alpha == -1j * f_full[0] * p.alpha
    assert d_full.d_alpha_plus != np.conj(d_full.d_alpha)


@pytest.mark.parametrize("name", METHOD_NAMES)
def test_frequency_table_follows_the_documented_formulas(name):
    """Each method's (F_a, F_b), written out as in the module docstring.

    Random complex points; truncated Wigner points are conjugate
    symmetric, as its flow keeps them.
    """
    omega_a, omega_b, chi_a, chi_b, g = 0.3, -0.7, 1.1, 0.9, 0.6
    params = make_params(omega_a, omega_b, chi_a, chi_b, g)
    rng = np.random.default_rng(41)
    a, ap, b, bp = rng.normal(size=(4, 50)) + 1j * rng.normal(size=(4, 50))
    if name == "wigner":
        ap, bp = np.conj(a), np.conj(b)
    na, nb = ap * a, bp * b
    if name == "hybrid_truncated":
        nb = np.real(nb)
    if name in ("hybrid", "hybrid_truncated"):
        f_a = omega_a + 2 * chi_a * (na - 1) + g * nb
        f_b = omega_b + 2 * chi_b * nb + g * (na - 0.5)
    elif name == "positive_p":
        f_a = omega_a + 2 * chi_a * na + g * nb
        f_b = omega_b + 2 * chi_b * nb + g * na
    else:
        na, nb = np.abs(a) ** 2, np.abs(b) ** 2
        f_a = omega_a + 2 * chi_a * (na - 1) + g * (nb - 0.5)
        f_b = omega_b + 2 * chi_b * (nb - 1) + g * (na - 0.5)
    got_a, got_b = FREQUENCIES[name](a, ap, b, bp, params, g)
    np.testing.assert_allclose(got_a, f_a, rtol=1e-13)
    np.testing.assert_allclose(got_b, f_b, rtol=1e-13)


# ---------------------------------------------------------------------------
# noise coefficients and matrix structure
# ---------------------------------------------------------------------------


def hybrid_q_s(params, g):
    """The mixed method's (q, s) at coupling g, as the engine gets them."""
    coeffs = noise_coefficients("hybrid", params, np.array([g]))
    return coeffs["q"][0], coeffs["s"]


def test_noise_coefficients_square_to_the_diffusion_scales():
    for g in (1.0, 0.3, 2.5):
        for chi_b in (1.0, 0.2):
            q, s = hybrid_q_s(make_params(chi_b=chi_b, g=g), g)
            assert q ** 2 == pytest.approx(-1j * g / 4.0, rel=1e-14)
            assert s ** 2 == pytest.approx(2j * chi_b, rel=1e-14)
            # principal branches have non-negative real part
            assert np.real(q) >= 0.0
            assert np.real(s) >= 0.0


def test_hybrid_noise_factor_entries():
    params = make_params(chi_b=0.7, g=1.3)
    q, s = hybrid_q_s(params, 1.3)
    a, ap, b, bp = 1.1 - 0.2j, 0.9 + 0.4j, -0.3 + 2.0j, 0.5j
    B = hybrid_noise_factor(PhasePoint(a, ap, b, bp), params, 1.3)
    expected = np.array([
        [0.0, 0.0, q * a, 1j * q * a],
        [0.0, 0.0, -q * ap, -1j * q * ap],
        [1j * s * b, 0.0, q * b, -1j * q * b],
        [0.0, s * bp, q * bp, -1j * q * bp],
    ])
    np.testing.assert_array_equal(B, expected)


def test_hybrid_noise_vanishes_without_coupling_or_b_kerr():
    params = make_params(chi_b=0.0, g=0.0)
    B = hybrid_noise_factor(PhasePoint(2.0, 2.0, 3.0, 3.0), params, 0.0)
    assert np.all(B == 0.0)


def test_hybrid_factorization_reproduces_diffusion():
    params = make_params(omega_a=0.3, omega_b=-0.7, chi_a=1.3, chi_b=0.9, g=1.7)
    rng = np.random.default_rng(42)
    for p in random_points(rng, 200):
        B = hybrid_noise_factor(p, params, 1.7)
        D = hybrid_diffusion(p, params, 1.7)
        scale = max(1.0, float(np.abs(D).max()))
        np.testing.assert_allclose(B @ B.T, D, rtol=0.0, atol=1e-12 * scale)


def test_hybrid_diffusion_has_no_a_mode_kerr_block():
    """The a-mode rows carry only interface noise: D[:2,:2] cancels."""
    params = make_params(chi_a=5.0, g=2.0)  # large chi_a must not leak in
    rng = np.random.default_rng(7)
    for p in random_points(rng, 100):
        B = hybrid_noise_factor(p, params, 2.0)
        P = B @ B.T
        scale = max(1.0, float(np.abs(P).max()))
        assert np.abs(P[:2, :2]).max() < 1e-13 * scale
        D = hybrid_diffusion(p, params, 2.0)
        assert np.all(D[:2, :2] == 0.0)
        assert D[2, 3] == 0.0 and D[3, 2] == 0.0


def test_ito_generator_of_occupation_vanishes():
    """alpha_plus*alpha is a strong invariant: drift and noise terms cancel.

    The generator applied to f = x0*x1 is x1*A0 + x0*A1 + D01; each piece
    is O(|F_a| |alpha|^2) so the cancellation is checked relative to that
    scale.
    """
    params = make_params(omega_a=0.3, omega_b=-0.7, chi_a=1.3, chi_b=0.9, g=1.7)
    rng = np.random.default_rng(2718)
    for p in random_points(rng, 200):
        d = hybrid_drift(p, params, 1.7)
        B = hybrid_noise_factor(p, params, 1.7)
        first = p.alpha_plus * d.d_alpha + p.alpha * d.d_alpha_plus
        second = (B @ B.T)[0, 1]
        scale = max(1.0, abs(p.alpha_plus * d.d_alpha))
        assert abs(first + second) < 1e-12 * scale


# ---------------------------------------------------------------------------
# two-mode positive-P factor
# ---------------------------------------------------------------------------


def mode_matrix(chi_a, chi_b, g):
    return np.array([[-2j * chi_a, -1j * g], [-1j * g, -2j * chi_b]])


@pytest.mark.parametrize("chi_a,chi_b,g", [
    (1.0, 0.5, 0.3),      # ordinary Cholesky path
    (0.0, 2.0, 0.3),      # pivoted: leading Kerr term vanishes
    (0.0, 0.0, 1.0),      # pure coupling
    (1.0, 1.0, 1.0),      # the standard working point
    (2.0, 0.1, 0.0),      # uncoupled
])
def test_mode_factor_squares_to_mode_matrix(chi_a, chi_b, g):
    F = positive_p_mode_factor(chi_a, chi_b, g)
    np.testing.assert_allclose(F @ F.T, mode_matrix(chi_a, chi_b, g),
                               rtol=0.0, atol=1e-14)


def test_mode_factor_is_zero_without_nonlinearity():
    assert np.all(positive_p_mode_factor(0.0, 0.0, 0.0) == 0.0)


def test_mode_factor_reduces_to_single_mode_form_when_uncoupled():
    chi = 0.8
    F = positive_p_mode_factor(chi, chi, 0.0)
    assert F[0, 0] == pytest.approx(np.sqrt(-2j * chi), rel=1e-15)
    assert F[0, 1] == 0.0
    assert F[1, 0] == 0.0
    # and through the full factor: B[0,0] = sqrt(-2i chi) alpha,
    # B[1,2]^2 = 2i chi alpha_plus^2 -- the textbook single-mode form
    params = make_params(chi_a=chi, chi_b=chi, g=0.0)
    p = PhasePoint(1.4 - 0.3j, 0.8 + 0.1j, 0.2, 0.5)
    B = positive_p_noise_factor(p, params, 0.0)
    assert B[0, 0] == pytest.approx(np.sqrt(-2j * chi) * p.alpha, rel=1e-15)
    assert B[1, 2] ** 2 == pytest.approx(2j * chi * p.alpha_plus ** 2, rel=1e-14)


def test_positive_p_factorization_reproduces_diffusion():
    params = make_params(omega_a=0.1, omega_b=0.9, chi_a=0.6, chi_b=1.1, g=0.8)
    rng = np.random.default_rng(99)
    for p in random_points(rng, 200):
        B = positive_p_noise_factor(p, params, 0.8)
        D = positive_p_diffusion(p, params, 0.8)
        scale = max(1.0, float(np.abs(D).max()))
        np.testing.assert_allclose(B @ B.T, D, rtol=0.0, atol=1e-12 * scale)


def test_positive_p_diffusion_couples_only_like_variables():
    p = PhasePoint(1.0, 2.0, 3.0, 4.0)
    D = positive_p_diffusion(p, make_params(), 1.0)
    # plain and plus variables never share a noise source
    assert D[0, 1] == 0.0 and D[0, 3] == 0.0
    assert D[1, 2] == 0.0 and D[2, 3] == 0.0
    assert D[0, 2] == pytest.approx(-1j * 1.0 * 3.0)
    assert D[1, 3] == pytest.approx(+1j * 2.0 * 4.0)


def test_positive_p_generator_of_occupation_vanishes():
    params = make_params(chi_a=0.6, chi_b=1.1, g=0.8)
    rng = np.random.default_rng(314)
    for p in random_points(rng, 100):
        d = positive_p_drift(p, params, 0.8)
        B = positive_p_noise_factor(p, params, 0.8)
        first = p.alpha_plus * d.d_alpha + p.alpha * d.d_alpha_plus
        second = (B @ B.T)[0, 1]
        scale = max(1.0, abs(p.alpha_plus * d.d_alpha))
        assert abs(first + second) < 1e-12 * scale
