"""Initial-state sampling and moment-to-observable conversions.

Sampling covers coherent initial states in both representations: the
symmetric-ordering (r=2) scheme draws a Gaussian half-quantum cloud around
gamma, the normal-ordering (r=1) scheme is a delta at (gamma, gamma*).

The estimator functions convert raw phase-space moments into physical
expectation values under the correct operator ordering for each mode's
r tag.  Conversions beyond first moments carry ordering constants; each
one is pinned against the Fock evaluator in the test suite.
"""
from __future__ import annotations

import math

import numpy as np

from .core import MethodSpec

__all__ = [
    "draw_standard_normals",
    "sample_wigner_coherent",
    "sample_positive_p_coherent",
    "estimate_quadratures",
    "estimate_number",
    "estimate_number_variance",
    "estimate_Yb_variance",
    "estimate_NaYb",
    "OBSERVABLE_NAMES",
    "observable_estimate_complex",
]


# Cephes ndtri's coefficients as _kernel.c has them: |y - 0.5| <=
# 0.5 - exp(-2), then z = sqrt(-2 log y) in [2, 8) and in [8, 64), for
# y = min(u, 1 - u).  The leading 1 of each Q is implicit.
_EXPM2 = 0.13533528323661269189  # exp(-2)
_P0 = (-59.96335010141079, 98.00107541859997, -56.67628574690703,
       13.931260938727968, -1.2391658386738125)
_Q0 = (1.9544885833814176, 4.676279128988815, 86.36024213908905,
       -225.46268785411937, 200.26021238006066, -82.03722561683334,
       15.90562251262117, -1.1833162112133)
_P1 = (4.0554489230596245, 31.525109459989388, 57.16281922464213,
       44.08050738932008, 14.684956192885803, 2.1866330685079025,
       -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854)
_Q1 = (15.779988325646675, 45.39076351288792, 41.3172038254672,
       15.04253856929075, 2.504649462083094, -0.14218292285478779,
       -0.03808064076915783, -0.0009332594808954574)
_P2 = (3.2377489177694603, 6.915228890689842, 3.9388102529247444,
       1.3330346081580755, 0.20148538954917908, 0.012371663481782003,
       0.00030158155350823543, 2.6580697468673755e-06, 6.239745391849833e-09)
_Q2 = (6.02427039364742, 3.6798356385616087, 1.3770209948908132,
       0.21623699359449663, 0.013420400608854318, 0.00032801446468212774,
       2.8924786474538068e-06, 6.790194080099813e-09)

# Values per step of ``ndtri``: a piece's temporaries stay in cache.
_PIECE = 1 << 15


def _log(v):
    """libm's log of each value: numpy's log may differ in the last bit."""
    return np.fromiter(map(math.log, memoryview(v)), float, v.size)


def _ratio(x, p, q):
    """x * polevl(x, p) / p1evl(x, q), rounded as Cephes rounds it:
    Horner's rule, with p1evl's leading 1 added, not multiplied."""
    num, den = x * p[0] + p[1], x + q[0]
    for c in p[2:]:
        num *= x
        num += c
    for c in q[1:]:
        den *= x
        den += c
    return x * num / den


def ndtri(u):
    """The inverse standard normal CDF of each u in (0, 1), with the bits
    of ``scipy.special.ndtri``: Cephes ndtri (Moshier 1989) in the order of
    _kernel.c's port.  ``math.log`` raises ValueError at 0, 1 and beyond.
    """
    u = np.asarray(u, dtype=float)
    flat, x = u.reshape(-1), np.empty(u.size)
    for i in range(0, u.size, _PIECE):
        v, out = flat[i:i + _PIECE], x[i:i + _PIECE]
        y = v - 0.5
        out[:] = (y + y * _ratio(y * y, _P0, _Q0)) * 2.50662827463100050242E0
        # The tails, where y = min(v, 1 - v) is not above exp(-2): each v
        # above 1 - exp(-2) is in the upper one.
        upper = v > 1.0 - _EXPM2
        tail = np.flatnonzero(~(v > _EXPM2) | upper)
        upper, y = upper[tail], v[tail]
        t = np.sqrt(-2.0 * _log(np.where(upper, 1.0 - y, y)))
        z = 1.0 / t
        t = t - _log(t) / t - np.where(t < 8.0, _ratio(z, _P1, _Q1),
                                       _ratio(z, _P2, _Q2))
        out[tail] = np.where(upper, t, -t)
    return x.reshape(u.shape)


def draw_standard_normals(rngs, n):
    """``n`` standard normals from each stream in ``rngs``, one row per
    stream: ``ndtri`` of the streams' uniforms, in one call.

    Inverse-CDF keeps the number of consumed uniforms equal to the number
    of returned normals, so per-trajectory streams advance by a fixed,
    platform-independent amount.  A zero uniform (possible since the
    generator yields [0, 1)) is nudged to the smallest normal double.
    """
    u = np.empty((len(rngs), n))
    for row, rng in zip(u, rngs):
        rng.random(out=row)
    u[u == 0.0] = 2.2250738585072014e-308
    return ndtri(u)


def sample_wigner_coherent(gamma: complex, rngs):
    """Draw (alpha, alpha_plus) for a coherent state, symmetric ordering.

    alpha = gamma + (n1 + i n2)/2 with unit normals n1, n2 drawn in that
    order from each stream of ``rngs``; alpha_plus is exactly conj(alpha).
    """
    n1, n2 = draw_standard_normals(rngs, 2).T
    alpha = complex(gamma) + 0.5 * (n1 + 1j * n2)
    return alpha, alpha.conjugate()


def sample_positive_p_coherent(gamma: complex):
    """(gamma, conj(gamma)) with zero spread: the normal-ordering init."""
    g = complex(gamma)
    return g, g.conjugate()


# --------------------------------------------------------------------------
# moment conversions
# --------------------------------------------------------------------------
#
# ``moments`` maps monomial names (core.MONOMIALS) to complex ensemble or
# batch means: scalars, or arrays of any common shape such as
# (samples, batches).  Each conversion below is one complex, element-wise
# function; its real part is the observable.  The r tag selects the
# ordering constant: r=2 moments are symmetrically ordered and need the
# half-quantum / commutator corrections, r=1 moments are normally ordered.


def _real(name, moments, r_a, r_b):
    """The observable ``name``: the real part of its table entry."""
    return np.real(_CONVERSIONS[name](moments, r_a, r_b))


def _half(r):
    """The half quantum in a symmetrically ordered (r=2) alpha_plus*alpha."""
    return 0.5 if r == 2 else 0.0


def _number_variance(moments, r_a, r_b):
    lin = moments["alpha_plus_alpha"]
    sq = moments["alpha_plus_alpha_sq"]
    n2 = sq - lin if r_a == 2 else sq + lin
    return n2 - _real("N_a", moments, r_a, r_b) ** 2


def _Yb_variance(moments, r_a, r_b):
    one = 1.0 if r_b == 1 else 0.0
    y2 = -0.25 * (
        moments["beta_plus_sq"] + moments["beta_sq"]
        - 2.0 * moments["beta_plus_beta"] - one
    )
    return y2 - _real("Y_b", moments, r_a, r_b) ** 2


def _correlation(moments, r_a, r_b):
    """NaN wherever the variance product is not positive; imaginary part 0."""
    def real(name):
        return _real(name, moments, r_a, r_b)

    cov = real("N_a_Y_b") - real("N_a") * real("Y_b")
    denom = real("var_N_a") * real("var_Y_b")
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, cov / np.sqrt(denom), np.nan) + 0j


# name -> complex estimate from (moments, r_a, r_b).
_CONVERSIONS = {
    "X_a": lambda m, r_a, r_b: 0.5 * (m["alpha"] + m["alpha_plus"]),
    "Y_a": lambda m, r_a, r_b: (m["alpha"] - m["alpha_plus"]) / 2j,
    "X_b": lambda m, r_a, r_b: 0.5 * (m["beta"] + m["beta_plus"]),
    "Y_b": lambda m, r_a, r_b: (m["beta"] - m["beta_plus"]) / 2j,
    "N_a": lambda m, r_a, r_b: m["alpha_plus_alpha"] - _half(r_a),
    "N_b": lambda m, r_a, r_b: m["beta_plus_beta"] - _half(r_b),
    "var_N_a": _number_variance,
    "var_Y_b": _Yb_variance,
    "N_a_Y_b": lambda m, r_a, r_b: (
        m["alpha_plus_alpha_beta"] - m["alpha_plus_alpha_beta_plus"]
        - _half(r_a) * (m["beta"] - m["beta_plus"])) / 2j,
    "C_Na_Yb": _correlation,
}


def _check_mode(mode):
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")


def estimate_quadratures(moments, mode):
    """(mean_X, mean_Y); identical for both orderings (linear observable)."""
    _check_mode(mode)
    return (_real(f"X_{mode}", moments, 1, 1),
            _real(f"Y_{mode}", moments, 1, 1))


def estimate_number(moments, mode, r):
    """<N> for the given mode; r=2 subtracts the half quantum."""
    _check_mode(mode)
    return _real(f"N_{mode}", moments, r, r)


def estimate_number_variance(moments, mode, r):
    """V(N) from the first two number-monomial moments.

    r=2: <N^2> = Re<<(a+a)^2 - a+a>>; r=1: <N^2> = Re<<(a+a)^2 + a+a>>.
    Both conversions are verified against the Fock evaluator.  Only mode a
    second moments are recorded by the engine.
    """
    if mode != "a":
        raise ValueError("second number moments are recorded for mode a only")
    return _real("var_N_a", moments, r, r)


def estimate_Yb_variance(moments, r_b):
    """V(Y_b) from mode-b first and second moments.

    The normal-ordering (r_b=1) form carries a -1 from one commutator:
    <Y_b^2> = -Re(<<beta+^2>> + <<beta^2>> - 2<<beta+ beta>> - 1)/4.  With
    symmetric ordering (r_b=2) the commutator term is absent.
    """
    return _real("var_Y_b", moments, r_b, r_b)


def estimate_NaYb(moments, r_a):
    """<N_a Y_b> under mixed ordering.

    With a symmetric-ordered a mode (r_a=2) the half quantum of alpha+alpha
    is removed from the product by subtracting (1/2)(<<beta>> - <<beta+>>);
    with r_a=1 no correction is needed.
    """
    return _real("N_a_Y_b", moments, r_a, r_a)


OBSERVABLE_NAMES = tuple(_CONVERSIONS)


def observable_estimate_complex(name, moments, method: MethodSpec):
    """Complex-valued estimate whose real part is the observable.

    The imaginary part is a diagnostic: physical observables are real, so
    a residual imaginary part measures sampling noise (or a bug).  For the
    variance observables the diagnostic imaginary part comes from the
    second-moment combination; for the correlation it is zero by
    construction.  Moments may be arrays; the estimate is element-wise.
    """
    if name not in _CONVERSIONS:
        raise KeyError(f"unknown observable {name!r}")
    return _CONVERSIONS[name](moments, method.r_a, method.r_b)
