"""Exact reference values for two coupled Kerr oscillators.

Everything here is independent of the stochastic engine.  Two routes are
provided and cross-checked against each other in the test suite:

* Closed-form expressions for coherent-product initial states.  The
  Hamiltonian

      H = omega_a n_a + chi_a n_a(n_a-1) + omega_b n_b + chi_b n_b(n_b-1)
          + g n_a n_b

  is diagonal in the two-mode number basis, which makes quadratures,
  selected second moments, and the number/quadrature cross moment
  expressible through elementary functions.  A piecewise coupling that is
  g until time tau and zero afterwards enters every formula only through
  the accumulated phase theta(t) = g*min(t, tau); the omega and chi phases
  keep running.

* A numerically exact Fock-basis evaluator (``fock_expect``) that sums the
  same diagonal evolution over number states up to the cutoff
  ``default_cutoff``, ceil(N + 10 sqrt(N) + 30) for occupation N.  It
  knows nothing about the closed forms, so agreement between the two is a
  genuine two-sided check.

Quadrature conventions: X = (a + a^dag)/2 and Y = (a - a^dag)/(2i), so a
coherent state gamma has X + iY = gamma and quadrature variance 1/4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .core import _finite

__all__ = [
    "OracleParams",
    "accumulated_coupling_phase",
    "exact_series",
    "default_cutoff",
    "fock_expect",
    "fock_word_expect",
    "fock_symmetrized",
    "match_schedule",
]


@dataclass(frozen=True)
class OracleParams:
    """Physics of one run in closed-form-friendly form.

    The coupling is either constant g (tau=None) or g until tau and zero
    afterwards.  N_a0 and N_b0 are the initial coherent occupations.
    """

    omega_a: float
    omega_b: float
    chi_a: float
    chi_b: float
    g: float
    N_a0: float
    N_b0: float
    tau: float | None = None

    def __post_init__(self):
        values = (self.omega_a, self.omega_b, self.chi_a, self.chi_b, self.g,
                  self.N_a0, self.N_b0)
        if not all(_finite(v) for v in values):
            raise ValueError("frequencies, coupling and occupations must be "
                             "finite")
        if self.tau is not None and not (_finite(self.tau)
                                         and self.tau >= 0):
            raise ValueError("tau must be a finite number >= 0 when present")
        if self.N_a0 < 0 or self.N_b0 < 0:
            raise ValueError("initial occupations must be non-negative")


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def accumulated_coupling_phase(t, p: OracleParams):
    """theta(t) = integral of g over [0, t] for the (g, tau) schedule."""
    t = np.asarray(t, dtype=float)
    if p.tau is None:
        return p.g * t
    return p.g * np.minimum(t, p.tau)


def _mean(mode: str, t, p: OracleParams):
    """<a>(t) or <b>(t), by ``mode``, for the coherent-product state."""
    t = np.asarray(t, dtype=float)
    th = accumulated_coupling_phase(t, p)
    if mode == "a":
        n, omega, chi, n_other = p.N_a0, p.omega_a, p.chi_a, p.N_b0
    else:
        n, omega, chi, n_other = p.N_b0, p.omega_b, p.chi_b, p.N_a0
    return (
        math.sqrt(n)
        * np.exp(-1j * omega * t)
        * np.exp(n * (np.exp(-2j * chi * t) - 1.0))
        * np.exp(n_other * (np.exp(-1j * th) - 1.0))
    )


def _mean_nab(t, p: OracleParams):
    """<n_a b>(t) (complex); its imaginary part is <N_a Y_b>."""
    t = np.asarray(t, dtype=float)
    th = accumulated_coupling_phase(t, p)
    return (
        p.N_a0
        * math.sqrt(p.N_b0)
        * np.exp(-1j * th)
        * np.exp(-1j * p.omega_b * t)
        * np.exp(
            p.N_a0 * (np.exp(-1j * th) - 1.0)
            + p.N_b0 * (np.exp(-2j * p.chi_b * t) - 1.0)
        )
    )


def _mean_b_sq(t, p: OracleParams):
    """<b^2>(t) (complex), needed for the Y_b variance."""
    t = np.asarray(t, dtype=float)
    th = accumulated_coupling_phase(t, p)
    return (
        p.N_b0
        * np.exp(-2j * p.omega_b * t - 2j * p.chi_b * t)
        * np.exp(
            p.N_b0 * (np.exp(-4j * p.chi_b * t) - 1.0)
            + p.N_a0 * (np.exp(-2j * th) - 1.0)
        )
    )


def _var_Yb(t, p: OracleParams):
    """V(Y_b)(t) = <Y_b^2> - <Y_b>^2."""
    mb = _mean("b", t, p)
    mb2 = _mean_b_sq(t, p)
    return 0.25 + 0.5 * p.N_b0 - 0.5 * np.real(mb2) - np.imag(mb) ** 2


def _correlation(t, p: OracleParams):
    """Number/quadrature correlation C(N_a, Y_b).

    C = (<N_a Y_b> - <N_a><Y_b>) / sqrt(V(N_a) V(Y_b)) with the conserved
    values <N_a> = N_a0 and V(N_a) = N_a0.  NaN wherever the variance
    product is not positive, as at N_a0 = 0.
    """
    num = np.imag(_mean_nab(t, p)) - p.N_a0 * np.imag(_mean("b", t, p))
    denom = p.N_a0 * _var_Yb(t, p)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0, num / np.sqrt(denom), np.nan)


# Each observable's closed form on a float time array.
_EXACT = {
    "X_a": lambda t, p: np.real(_mean("a", t, p)),
    "Y_a": lambda t, p: np.imag(_mean("a", t, p)),
    "X_b": lambda t, p: np.real(_mean("b", t, p)),
    "Y_b": lambda t, p: np.imag(_mean("b", t, p)),
    "N_a": lambda t, p: np.full_like(t, p.N_a0),
    "N_b": lambda t, p: np.full_like(t, p.N_b0),
    "var_N_a": lambda t, p: np.full_like(t, p.N_a0),
    "var_Y_b": _var_Yb,
    "N_a_Y_b": lambda t, p: np.imag(_mean_nab(t, p)),
    "C_Na_Yb": _correlation,
}


def exact_series(name: str, t, p: OracleParams):
    """Exact value(s) of a named observable at time(s) t."""
    if name not in _EXACT:
        raise KeyError(f"no exact formula for observable {name!r}")
    return _EXACT[name](np.asarray(t, dtype=float), p)


def match_schedule(params, N_a0: float, N_b0: float) -> OracleParams | None:
    """Map SystemParams onto OracleParams when the schedule allows it.

    Supported shapes: a single constant segment, or exactly two segments
    with the second g equal to zero (coupling switched off at tau).  Any
    other schedule returns None and callers must do without exact curves.
    """
    segs = params.coupling.segments
    if len(segs) == 1:
        g, tau = segs[0][1], None
    elif len(segs) == 2 and segs[1][1] == 0.0:
        g, tau = segs[0][1], segs[0][0]
    else:
        return None
    return OracleParams(
        omega_a=params.omega_a,
        omega_b=params.omega_b,
        chi_a=params.chi_a,
        chi_b=params.chi_b,
        g=g,
        N_a0=N_a0,
        N_b0=N_b0,
        tau=tau,
    )


# --------------------------------------------------------------------------
# Fock-basis evaluator
# --------------------------------------------------------------------------


def default_cutoff(occupation: float) -> int:
    """Fock cutoff for a coherent state of given occupation N >= 0.

    ceil(N + 10 sqrt(N) + 30).  The Bernstein bound
    P(n >= N + x) <= exp(-x^2 / (2 (N + x/3))) with x = 10 sqrt(N) + 30
    puts a Poisson tail mass of at most e^-45 beyond it for every N.  The
    margin is wider than the probability tail alone needs because moment
    sums weight the tail by powers of n.
    """
    return int(math.ceil(occupation + 10.0 * math.sqrt(occupation) + 30.0))


def _coherent_coefficients(occupation: float, cutoff: int) -> np.ndarray:
    """Real number-basis coefficients of |gamma| = sqrt(occupation).

    Computed in log space so large occupations stay accurate.
    """
    n = np.arange(cutoff + 1)
    if occupation == 0:
        c = np.zeros(cutoff + 1)
        c[0] = 1.0
        return c
    log_factorial = np.array([math.lgamma(k + 1) for k in range(cutoff + 1)])
    log_c = -0.5 * occupation + 0.5 * n * np.log(occupation) - 0.5 * log_factorial
    return np.exp(log_c)


def _ladder_walk(word: str, n: np.ndarray):
    """Amplitude and net level shift of a ladder-operator word on |n>.

    ``word`` is a string over '+' (creation) and '-' (annihilation) read as
    an operator product left-to-right, hence applied to the ket from the
    right end of the string.  Walks that dip below the vacuum pick up a
    zero amplitude; the level clamp keeps later '+' factors from producing
    sqrt of a negative level (the amplitude is already zero on such paths).
    """
    level = n.astype(float).copy()
    amp = np.ones_like(level)
    for ch in reversed(word):
        if ch == "-":
            amp = amp * np.sqrt(np.maximum(level, 0.0))
            level -= 1.0
        elif ch == "+":
            amp = amp * np.sqrt(np.maximum(level + 1.0, 0.0))
            level += 1.0
        else:
            raise ValueError(f"ladder word may contain only '+'/'-', got {word!r}")
    delta = word.count("+") - word.count("-")
    return amp, delta


def fock_word_expect(word_a: str, word_b: str, t: float,
                     p: OracleParams) -> complex:
    """<W_a (x) W_b>(t) for ladder words acting on each mode.

    The number-diagonal evolution factorizes the double sum into a product
    of two single sums with mode-coupling phases; the result is exact up
    to the Poisson tails beyond the cutoffs, which ``default_cutoff``
    takes from each mode's occupation.
    """
    top_a = default_cutoff(p.N_a0)
    top_b = default_cutoff(p.N_b0)

    theta = float(accumulated_coupling_phase(float(t), p))
    # Pad the coefficient array so shifted indices stay in range.
    pad_a = max(4, len(word_a))
    pad_b = max(4, len(word_b))
    c_a = _coherent_coefficients(p.N_a0, top_a + pad_a)
    c_b = _coherent_coefficients(p.N_b0, top_b + pad_b)
    n_a = np.arange(top_a + 1)
    n_b = np.arange(top_b + 1)

    amp_a, d_a = _ladder_walk(word_a, n_a)
    amp_b, d_b = _ladder_walk(word_b, n_b)

    # The coefficient of |n + d>, zero below the vacuum.
    shift_a = np.where(n_a + d_a >= 0, c_a[np.maximum(n_a + d_a, 0)], 0.0)
    shift_b = np.where(n_b + d_b >= 0, c_b[np.maximum(n_b + d_b, 0)], 0.0)

    # Energy-difference phase between |n+d> and |n>, split into an
    # n-independent prefactor and per-mode linear-in-n factors.
    prefactor = np.exp(
        1j
        * (
            p.omega_a * d_a * t
            + p.omega_b * d_b * t
            + p.chi_a * (d_a * d_a - d_a) * t
            + p.chi_b * (d_b * d_b - d_b) * t
            + d_a * d_b * theta
        )
    )
    sum_a = np.sum(
        shift_a * c_a[n_a] * amp_a
        * np.exp(1j * (2.0 * p.chi_a * d_a * t + d_b * theta) * n_a)
    )
    sum_b = np.sum(
        shift_b * c_b[n_b] * amp_b
        * np.exp(1j * (2.0 * p.chi_b * d_b * t + d_a * theta) * n_b)
    )
    return complex(prefactor * sum_a * sum_b)


# Each Fock observable from ``w(word_a, word_b)``, the ladder-word
# expectation of ``fock_word_expect``.
_FOCK = {
    "X_a": lambda w: 0.5 * (w("-", "") + w("+", "")),
    "Y_a": lambda w: (w("-", "") - w("+", "")) / 2j,
    "X_b": lambda w: 0.5 * (w("", "-") + w("", "+")),
    "Y_b": lambda w: (w("", "-") - w("", "+")) / 2j,
    "N_a": lambda w: w("+-", ""),
    "N_a2": lambda w: w("+-+-", ""),
    "Y_b2": lambda w: -0.25 * (w("", "--") + w("", "++") - w("", "+-")
                               - w("", "-+")),
    "N_aY_b": lambda w: (w("+-", "-") - w("+-", "+")) / 2j,
}


def fock_expect(observable: str, t: float, p: OracleParams) -> float:
    """Numerically exact expectation value from the Fock double sum.

    observable is one of X_a, Y_a, X_b, Y_b, N_a, N_a2 (second number
    moment), Y_b2 (second quadrature moment), N_aY_b.
    """
    if observable not in _FOCK:
        raise KeyError(
            f"unknown Fock observable {observable!r}; "
            f"expected one of {tuple(_FOCK)}"
        )

    def w(word_a, word_b):
        return fock_word_expect(word_a, word_b, t, p)

    return float(np.real(_FOCK[observable](w)))


def fock_symmetrized(letters_a, letters_b, t: float,
                     p: OracleParams) -> complex:
    """Symmetrically ordered expectation of ladder letters on each mode.

    Averages the ordered expectation over every distinct arrangement of
    each mode's letters (the multiset-permutation definition of symmetric
    ordering).  Used to verify the r=2 moment conversions independently.
    """
    perms_a = sorted(set(permutations(letters_a))) or [()]
    perms_b = sorted(set(permutations(letters_b))) or [()]
    vals = [
        fock_word_expect("".join(pa), "".join(pb), t, p)
        for pa in perms_a
        for pb in perms_b
    ]
    return complex(np.mean(vals))
