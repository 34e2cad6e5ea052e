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
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import MethodSpec

__all__ = [
    "CoherentInit",
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


@dataclass(frozen=True)
class CoherentInit:
    """Initial coherent amplitudes; occupations are |gamma|^2."""

    gamma_a: complex
    gamma_b: complex

    @classmethod
    def from_occupations(cls, N_a0: float, N_b0: float) -> "CoherentInit":
        return cls(math.sqrt(N_a0), math.sqrt(N_b0))


def draw_standard_normals(rng, shape):
    """Standard normals via the inverse CDF of the stream's uniforms.

    Inverse-CDF keeps the number of consumed uniforms equal to the number
    of returned normals, so per-trajectory streams advance by a fixed,
    platform-independent amount.  A zero uniform (possible since the
    generator yields [0, 1)) is nudged to the smallest normal double.
    """
    u = rng.random(shape)
    u = np.where(u == 0.0, 2.2250738585072014e-308, u)
    return ndtri(u)


def sample_wigner_coherent(gamma: complex, rng):
    """Draw (alpha, alpha_plus) for a coherent state, symmetric ordering.

    alpha = gamma + (n1 + i n2)/2 with unit normals n1, n2 drawn in that
    order from the given stream; alpha_plus is exactly conj(alpha).
    """
    n1, n2 = draw_standard_normals(rng, 2)
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


def _quadratures(moments, mode):
    keys = {"a": ("alpha", "alpha_plus"), "b": ("beta", "beta_plus")}.get(mode)
    if keys is None:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    low, high = moments[keys[0]], moments[keys[1]]
    return 0.5 * (low + high), (low - high) / 2j


def _number(moments, mode, r):
    key = {"a": "alpha_plus_alpha", "b": "beta_plus_beta"}.get(mode)
    if key is None:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    return moments[key] - (0.5 if r == 2 else 0.0)


def _number_variance(moments, mode, r):
    if mode != "a":
        raise ValueError("second number moments are recorded for mode a only")
    lin = moments["alpha_plus_alpha"]
    sq = moments["alpha_plus_alpha_sq"]
    n2 = sq - lin if r == 2 else sq + lin
    n = np.real(_number(moments, "a", r))
    return n2 - n ** 2


def _Yb_variance(moments, r_b):
    one = 1.0 if r_b == 1 else 0.0
    y2 = -0.25 * (
        moments["beta_plus_sq"] + moments["beta_sq"]
        - 2.0 * moments["beta_plus_beta"] - one
    )
    y = np.real(_quadratures(moments, "b")[1])
    return y2 - y ** 2


def _NaYb(moments, r_a):
    c_a = 0.5 if r_a == 2 else 0.0
    return (
        moments["alpha_plus_alpha_beta"]
        - moments["alpha_plus_alpha_beta_plus"]
        - c_a * (moments["beta"] - moments["beta_plus"])
    ) / 2j


def _correlation(moments, r_a, r_b):
    """NaN wherever the variance product is not positive; imaginary part 0."""
    _, y_b = estimate_quadratures(moments, "b", r_b)
    cov = estimate_NaYb(moments, r_a) - estimate_number(moments, "a", r_a) * y_b
    denom = (estimate_number_variance(moments, "a", r_a)
             * estimate_Yb_variance(moments, r_b))
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, cov / np.sqrt(denom), np.nan) + 0j


def estimate_quadratures(moments, mode, r):
    """(mean_X, mean_Y); identical for both orderings (linear observable)."""
    x, y = _quadratures(moments, mode)
    return np.real(x), np.real(y)


def estimate_number(moments, mode, r):
    """<N> for the given mode; r=2 subtracts the half quantum."""
    return np.real(_number(moments, mode, r))


def estimate_number_variance(moments, mode, r):
    """V(N) from the first two number-monomial moments.

    r=2: <N^2> = Re<<(a+a)^2 - a+a>>; r=1: <N^2> = Re<<(a+a)^2 + a+a>>.
    Both conversions are verified against the Fock evaluator.  Only mode a
    second moments are recorded by the engine.
    """
    return np.real(_number_variance(moments, mode, r))


def estimate_Yb_variance(moments, r_b=1):
    """V(Y_b) from mode-b first and second moments.

    The normal-ordering (r_b=1) form carries a -1 from one commutator:
    <Y_b^2> = -Re(<<beta+^2>> + <<beta^2>> - 2<<beta+ beta>> - 1)/4.  With
    symmetric ordering (r_b=2) the commutator term is absent.
    """
    return np.real(_Yb_variance(moments, r_b))


def estimate_NaYb(moments, r_a=2):
    """<N_a Y_b> under mixed ordering.

    With a symmetric-ordered a mode (r_a=2) the half quantum of alpha+alpha
    is removed from the product by subtracting (1/2)(<<beta>> - <<beta+>>);
    with r_a=1 no correction is needed.
    """
    return np.real(_NaYb(moments, r_a))


# name -> complex estimate from (moments, r_a, r_b).
_CONVERSIONS = {
    "X_a": lambda m, r_a, r_b: _quadratures(m, "a")[0],
    "Y_a": lambda m, r_a, r_b: _quadratures(m, "a")[1],
    "X_b": lambda m, r_a, r_b: _quadratures(m, "b")[0],
    "Y_b": lambda m, r_a, r_b: _quadratures(m, "b")[1],
    "N_a": lambda m, r_a, r_b: _number(m, "a", r_a),
    "N_b": lambda m, r_a, r_b: _number(m, "b", r_b),
    "var_N_a": lambda m, r_a, r_b: _number_variance(m, "a", r_a),
    "var_Y_b": lambda m, r_a, r_b: _Yb_variance(m, r_b),
    "N_a_Y_b": lambda m, r_a, r_b: _NaYb(m, r_a),
    "C_Na_Yb": _correlation,
}

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
