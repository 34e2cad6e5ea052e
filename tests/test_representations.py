"""Initial-state sampling and ordering-aware estimators."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasesde as ps
from phasesde.integrator import make_stream
from phasesde.oracle import OracleParams, fock_expect, fock_symmetrized, fock_word_expect
from phasesde.representations import draw_standard_normals


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(re=st.floats(-5, 5), im=st.floats(-5, 5), seed=st.integers(0, 2 ** 32))
def test_wigner_sample_is_exactly_conjugate(re, im, seed):
    gen = make_stream(seed, 0)
    alpha, alpha_plus = ps.sample_wigner_coherent(complex(re, im), gen)
    assert alpha_plus == np.conj(alpha)


def test_positive_p_sample_is_deterministic():
    gamma = 1.3 - 0.2j
    for _ in range(5):
        alpha, alpha_plus = ps.sample_positive_p_coherent(gamma)
        assert alpha == gamma
        assert alpha_plus == np.conj(gamma)


def test_wigner_cloud_moments():
    """The symmetric-ordering half quantum: mean of alpha_plus*alpha is N0 + 1/2.

    The per-sample spread of that product is sqrt(N0 + 1/4), about 10 at
    N0=100, so the empirical mean is checked against a 4-sigma band of the
    analytic standard error.
    """
    n0 = 100.0
    gamma = math.sqrt(n0)
    m = 20000
    gen = make_stream(5150, 0)
    draws = np.empty(m, dtype=complex)
    for i in range(m):
        a, apl = ps.sample_wigner_coherent(gamma, gen)
        draws[i] = apl * a
    values = draws.real
    sd_exact = math.sqrt(n0 + 0.25)
    assert abs(values.mean() - (n0 + 0.5)) < 4 * sd_exact / math.sqrt(m)
    assert values.std() == pytest.approx(sd_exact, rel=0.05)
    # the product of a conjugate pair has no imaginary part at all
    assert np.abs(draws.imag).max() == 0.0


def test_wigner_quadrature_covariance():
    gen = make_stream(77, 3)
    m = 40000
    pts = np.array([ps.sample_wigner_coherent(2.0 + 1.0j, gen)[0] for _ in range(m)])
    x, y = pts.real, pts.imag
    assert x.mean() == pytest.approx(2.0, abs=4 * 0.5 / math.sqrt(m))
    assert y.mean() == pytest.approx(1.0, abs=4 * 0.5 / math.sqrt(m))
    # each quadrature carries variance 1/4 and they are uncorrelated
    assert x.var() == pytest.approx(0.25, rel=0.05)
    assert y.var() == pytest.approx(0.25, rel=0.05)
    assert np.cov(x, y)[0, 1] == pytest.approx(0.0, abs=4 * 0.25 / math.sqrt(m))


def test_normal_draws_are_reproducible_and_unit_variance():
    a = draw_standard_normals(make_stream(9, 4), 1000)
    b = draw_standard_normals(make_stream(9, 4), 1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, draw_standard_normals(make_stream(9, 5), 1000))


def test_wiener_increment_second_moment():
    """<dw^2> = dt within 0.5% over one million inverse-CDF draws."""
    dt = 1e-4
    xi = draw_standard_normals(make_stream(123, 0), 1_000_000)
    dw = xi * math.sqrt(dt)
    assert abs((dw ** 2).mean() - dt) < 0.005 * dt


# ---------------------------------------------------------------------------
# analytic t=0 moments of the sampling distributions
# ---------------------------------------------------------------------------


def coherent_state_moments(gamma_a: complex, gamma_b: complex,
                           method: ps.MethodSpec) -> dict:
    """Exact raw moments of the initial sampling distribution.

    Delta-sampled modes (r=1) contribute their point values; Wigner-sampled
    modes (r=2) add the half-quantum cloud: <m_plus m> = |gamma|^2 + 1/2 and
    <(m_plus m)^2> = |gamma|^4 + 2|gamma|^2 + 1/2.  The two modes are
    independent, so mixed moments factorize.
    """
    na, nb = abs(gamma_a) ** 2, abs(gamma_b) ** 2
    if method.r_a == 2:
        apa = na + 0.5
        apa_sq = na ** 2 + 2 * na + 0.5
    else:
        apa = na
        apa_sq = na ** 2
    bpb = nb + 0.5 if method.r_b == 2 else nb
    return {
        "alpha": gamma_a,
        "alpha_plus": np.conj(gamma_a),
        "beta": gamma_b,
        "beta_plus": np.conj(gamma_b),
        "alpha_plus_alpha": apa,
        "beta_plus_beta": bpb,
        "alpha_plus_alpha_sq": apa_sq,
        "beta_sq": gamma_b ** 2,
        "beta_plus_sq": np.conj(gamma_b) ** 2,
        "alpha_plus_alpha_beta": apa * gamma_b,
        "alpha_plus_alpha_beta_plus": apa * np.conj(gamma_b),
    }


@pytest.mark.parametrize("method_name", ps.METHOD_NAMES)
@pytest.mark.parametrize("gamma_a,gamma_b", [
    (math.sqrt(100.0), math.sqrt(0.01)),
    (2.0 * np.exp(0.4j), 0.5 * np.exp(-1.1j)),
])
def test_estimators_reproduce_coherent_values(method_name, gamma_a, gamma_b):
    """Ordering conversions recover N0, V(N)=N0, V(Y)=1/4, <X>, <N_a Y_b>."""
    method = ps.MethodSpec.of(method_name)
    moments = coherent_state_moments(gamma_a, gamma_b, method)
    na = abs(gamma_a) ** 2

    x, y = ps.estimate_quadratures(moments, "a", method.r_a)
    assert x == pytest.approx(np.real(gamma_a), abs=1e-10)
    assert y == pytest.approx(np.imag(gamma_a), abs=1e-10)

    assert ps.estimate_number(moments, "a", method.r_a) == pytest.approx(na, abs=1e-10)
    assert ps.estimate_number_variance(moments, "a", method.r_a) == pytest.approx(
        na, abs=1e-10)
    assert ps.estimate_Yb_variance(moments, method.r_b) == pytest.approx(
        0.25, abs=1e-10)

    expected_nayb = na * np.imag(gamma_b)
    got = ps.estimate_NaYb(moments, method.r_a)
    assert got == pytest.approx(expected_nayb, abs=1e-10)


def test_number_variance_only_defined_for_mode_a():
    moments = coherent_state_moments(1.0, 1.0, ps.MethodSpec.of("hybrid"))
    with pytest.raises(ValueError):
        ps.estimate_number_variance(moments, "b", 1)


def test_nayb_with_constant_number_and_imaginary_beta():
    """A deterministic ensemble: beta = i*c pairs with N_a = alpha_plus*alpha - 1/2."""
    apa, c = 3.7, 0.25
    moments = {
        "alpha_plus_alpha_beta": apa * 1j * c,
        "alpha_plus_alpha_beta_plus": apa * (-1j) * c,
        "beta": 1j * c,
        "beta_plus": -1j * c,
    }
    assert ps.estimate_NaYb(moments, 2) == pytest.approx((apa - 0.5) * c, abs=1e-12)


def test_observable_estimate_handles_all_names():
    method = ps.MethodSpec.of("hybrid")
    moments = coherent_state_moments(3.0, 0.5j, method)
    for name in ps.OBSERVABLE_NAMES:
        value = np.real(ps.observable_estimate_complex(name, moments, method))
        assert np.isfinite(value)
    with pytest.raises(KeyError):
        ps.observable_estimate_complex("Z_a", moments, method)


def test_correlation_estimate_is_nan_on_nonpositive_variance():
    method = ps.MethodSpec.of("positive_p")
    # beta_plus far from conj(beta) drives the Y_b variance estimate negative
    moments = coherent_state_moments(2.0, 0.0, method)
    moments["beta"] = 2.0
    moments["beta_plus"] = -2.0
    moments["beta_sq"] = 4.0
    moments["beta_plus_sq"] = 4.0
    moments["beta_plus_beta"] = -4.0
    value = ps.observable_estimate_complex("C_Na_Yb", moments, method)
    assert np.isnan(value.real)


# ---------------------------------------------------------------------------
# conversions against the number-basis oracle at evolved times
# ---------------------------------------------------------------------------


def _symmetrized_moments_a(t, p):
    """Raw Wigner-mode moments of mode a from Weyl-symmetrized words."""
    return {
        "alpha": fock_symmetrized(("-",), (), t, p),
        "alpha_plus": fock_symmetrized(("+",), (), t, p),
        "alpha_plus_alpha": fock_symmetrized(("+", "-"), (), t, p),
        "alpha_plus_alpha_sq": fock_symmetrized(("+", "+", "-", "-"), (), t, p),
    }


@pytest.mark.parametrize("n_a0", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("t", [0.0, 0.05, 0.3])
def test_conversions_match_fock_oracle(n_a0, t):
    """Each ordering conversion agrees with the number-basis evaluator.

    Normally-ordered raw moments are plain ladder words; symmetric-ordered
    ones are averages over ladder-word orderings.  Pushing either set
    through the estimators must land on the directly evaluated physical
    expectations to relative 1e-8.
    """
    p = OracleParams(omega_a=0.0, omega_b=0.0, chi_a=1.0, chi_b=1.0, g=1.0,
                     N_a0=n_a0, N_b0=0.25)
    tol = dict(rel=1e-8, abs=1e-10)

    n_direct = fock_expect("N_a", t, p)
    n2_direct = fock_expect("N_a2", t, p)
    y2_direct = fock_expect("Y_b2", t, p)
    yb_direct = fock_expect("Y_b", t, p)
    nayb_direct = fock_expect("N_aY_b", t, p)

    # normally ordered (r=1): plain words
    normal = {
        "alpha": fock_word_expect("-", "", t, p),
        "alpha_plus": fock_word_expect("+", "", t, p),
        "alpha_plus_alpha": fock_word_expect("+-", "", t, p),
        "alpha_plus_alpha_sq": fock_word_expect("++--", "", t, p),
        "beta": fock_word_expect("", "-", t, p),
        "beta_plus": fock_word_expect("", "+", t, p),
        "beta_plus_beta": fock_word_expect("", "+-", t, p),
        "beta_sq": fock_word_expect("", "--", t, p),
        "beta_plus_sq": fock_word_expect("", "++", t, p),
        "alpha_plus_alpha_beta": fock_word_expect("+-", "-", t, p),
        "alpha_plus_alpha_beta_plus": fock_word_expect("+-", "+", t, p),
    }
    assert ps.estimate_number(normal, "a", 1) == pytest.approx(n_direct, **tol)
    assert ps.estimate_number_variance(normal, "a", 1) == pytest.approx(
        n2_direct - n_direct ** 2, **tol)
    assert ps.estimate_Yb_variance(normal, 1) == pytest.approx(
        y2_direct - yb_direct ** 2, **tol)
    assert ps.estimate_NaYb(normal, 1) == pytest.approx(nayb_direct, **tol)

    # symmetric ordering (r=2) for mode a; mode b words stay normally ordered
    hybrid_moments = dict(normal)
    hybrid_moments.update(_symmetrized_moments_a(t, p))
    hybrid_moments["alpha_plus_alpha_beta"] = fock_symmetrized(
        ("+", "-"), ("-",), t, p)
    hybrid_moments["alpha_plus_alpha_beta_plus"] = fock_symmetrized(
        ("+", "-"), ("+",), t, p)
    assert ps.estimate_number(hybrid_moments, "a", 2) == pytest.approx(
        n_direct, **tol)
    assert ps.estimate_number_variance(hybrid_moments, "a", 2) == pytest.approx(
        n2_direct - n_direct ** 2, **tol)
    assert ps.estimate_NaYb(hybrid_moments, 2) == pytest.approx(nayb_direct, **tol)

    # symmetric ordering for mode b (Wigner method's Y_b variance)
    wigner_b = {
        "beta": fock_symmetrized((), ("-",), t, p),
        "beta_plus": fock_symmetrized((), ("+",), t, p),
        "beta_plus_beta": fock_symmetrized((), ("+", "-"), t, p),
        "beta_sq": fock_symmetrized((), ("-", "-"), t, p),
        "beta_plus_sq": fock_symmetrized((), ("+", "+"), t, p),
    }
    assert ps.estimate_Yb_variance(wigner_b, 2) == pytest.approx(
        y2_direct - yb_direct ** 2, **tol)
