"""Exact reference values for two coupled Kerr oscillators.

Nothing here depends on the stochastic engine: within the package only
``core`` and ``representations`` are read.  The Hamiltonian

    H = omega_a n_a + chi_a n_a(n_a-1) + omega_b n_b + chi_b n_b(n_b-1)
        + g n_a n_b

is diagonal in the two-mode number basis, and two routes use that:

* Closed forms.  For a coherent-product start every normally ordered
  monomial moment <a+^j_a a^k_a b+^j_b b^k_b>(t) has one.  ``exact_series``
  turns them into observables with the positive-P conversions of
  ``representations``, the one place that forms observables from moments.
  A piecewise-constant coupling g(t) enters only through
  theta(t) = integral of g over [0, t]; the omega and chi phases keep running.

* A numerically exact Fock-basis evaluator (``fock_expect``) that sums the
  same evolution over number states up to the cutoff ``default_cutoff``,
  ceil(N + 10 sqrt(N) + 30) for occupation N.  It shares no code with the
  closed forms or the conversions: acceptance criterion 1 checks
  ``exact_series`` against it, and criterion 11 the conversions.

Quadrature conventions: X = (a + a^dag)/2 and Y = (a - a^dag)/(2i), so a
coherent state gamma has X + iY = gamma and quadrature variance 1/4.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, permutations

import numpy as np

from .core import CouplingSchedule, MethodSpec, _finite
from .representations import observable_estimate_complex

__all__ = [
    "OracleParams",
    "accumulated_coupling_phase",
    "exact_series",
    "default_cutoff",
    "fock_expect",
    "fock_word_expect",
    "fock_symmetrized",
]


@dataclass(frozen=True)
class OracleParams:
    """Physics of one run in closed-form-friendly form.

    ``g`` is a CouplingSchedule; a real g is stored as the constant
    schedule.  N_a0 and N_b0 are the initial coherent occupations.
    """

    omega_a: float
    omega_b: float
    chi_a: float
    chi_b: float
    g: CouplingSchedule
    N_a0: float
    N_b0: float

    def __post_init__(self):
        if not isinstance(self.g, CouplingSchedule):
            object.__setattr__(self, "g", CouplingSchedule.constant(self.g))
        values = (self.omega_a, self.omega_b, self.chi_a, self.chi_b,
                  self.N_a0, self.N_b0)
        if not all(_finite(v) for v in values):
            raise ValueError("frequencies and occupations must be finite")
        problems = self.g.violations()
        if problems:
            raise ValueError("; ".join(problems))
        if self.N_a0 < 0 or self.N_b0 < 0:
            raise ValueError("initial occupations must be non-negative")

    @classmethod
    def of(cls, params, config) -> "OracleParams":
        """The physics of a run: SystemParams and the config's occupations."""
        return cls(params.omega_a, params.omega_b, params.chi_a, params.chi_b,
                   params.coupling, config.N_a0, config.N_b0)


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def accumulated_coupling_phase(t, p: OracleParams):
    """theta(t) = integral of g over [0, t] for the schedule ``p.g``.

    Adjacent segments with equal g are merged first, so a schedule gives
    the floats of its merged form.  Each later segment with g != 0 adds g
    times the part of [0, t] it covers, so a constant schedule gives g*t
    and one switched off once g*min(t, t_off).
    """
    t = np.asarray(t, dtype=float)
    segs = [tuple(run)[-1] for _, run in
            groupby(p.g.segments, key=lambda seg: seg[1])]
    theta = segs[0][1] * np.minimum(t, segs[0][0])
    for (start, _), (end, g) in zip(segs, segs[1:]):
        if g != 0.0:
            theta = theta + g * np.clip(t - start, 0.0, end - start)
    return theta


# Each monomial of core.MONOMIALS as (j_a, k_a, j_b, k_b): under r=1 its
# mean is that of the normally ordered word a+^j_a a^k_a b+^j_b b^k_b.
_WORDS = {
    "alpha": (0, 1, 0, 0), "alpha_plus": (1, 0, 0, 0),
    "beta": (0, 0, 0, 1), "beta_plus": (0, 0, 1, 0),
    "alpha_plus_alpha": (1, 1, 0, 0), "beta_plus_beta": (0, 0, 1, 1),
    "alpha_plus_alpha_sq": (2, 2, 0, 0),
    "beta_sq": (0, 0, 0, 2), "beta_plus_sq": (0, 0, 2, 0),
    "alpha_plus_alpha_beta": (1, 1, 0, 1),
    "alpha_plus_alpha_beta_plus": (1, 1, 1, 0),
}


def _word_mean(word, t, p: OracleParams):
    """<a+^j_a a^k_a b+^j_b b^k_b>(t) for word = (j_a, k_a, j_b, k_b).

    A level shift d = j - k gives each mode a phase phi per quantum, so its
    Poisson sum closes to exp(N0 (e^{i phi} - 1)); Phi is the rest.
    """
    j_a, k_a, j_b, k_b = word
    d_a, d_b = j_a - k_a, j_b - k_b
    th = accumulated_coupling_phase(t, p)
    phi_a = 2.0 * p.chi_a * d_a * t + d_b * th
    phi_b = 2.0 * p.chi_b * d_b * t + d_a * th
    Phi = ((p.omega_a * d_a + p.chi_a * (d_a * d_a - d_a)
            + p.omega_b * d_b + p.chi_b * (d_b * d_b - d_b)) * t
           + d_a * d_b * th + k_a * phi_a + k_b * phi_b)
    return (p.N_a0 ** ((j_a + k_a) / 2) * p.N_b0 ** ((j_b + k_b) / 2)
            * np.exp(1j * Phi + p.N_a0 * (np.exp(1j * phi_a) - 1.0)
                     + p.N_b0 * (np.exp(1j * phi_b) - 1.0)))


def exact_series(name: str, t, p: OracleParams):
    """Exact value(s) of a named observable at time(s) t: the normally
    ordered moments through the positive-P conversion."""
    t = np.asarray(t, dtype=float)

    class Moments(dict):  # each monomial worked out when first read
        def __missing__(self, key):
            value = self[key] = _word_mean(_WORDS[key], t, p)
            return value

    return observable_estimate_complex(name, Moments(),
                                       MethodSpec("positive_p")).real


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
    """Amplitude of a ladder-operator word on |n>.

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
    return amp


def _mode_sum(word: str, d: int, occupation: float, chi: float, t: float,
              coupling: float) -> complex:
    """One mode's single sum in ``fock_word_expect``: ``word``, of level
    shift d, on the coherent state of ``occupation``, with the phase
    2 chi d t + ``coupling`` per quantum."""
    top = default_cutoff(occupation)
    # Pad the coefficient array so shifted indices stay in range.
    c = _coherent_coefficients(occupation, top + max(4, len(word)))
    n = np.arange(top + 1)
    # The coefficient of |n + d>, zero below the vacuum.
    shift = np.where(n + d >= 0, c[np.maximum(n + d, 0)], 0.0)
    return np.sum(shift * c[n] * _ladder_walk(word, n)
                  * np.exp(1j * (2.0 * chi * d * t + coupling) * n))


def fock_word_expect(word_a: str, word_b: str, t: float,
                     p: OracleParams) -> complex:
    """<W_a (x) W_b>(t) for ladder words acting on each mode.

    The number-diagonal evolution factorizes the double sum into a product
    of two single sums with mode-coupling phases; the result is exact up
    to the Poisson tails beyond the cutoffs, which ``default_cutoff``
    takes from each mode's occupation.
    """
    theta = float(accumulated_coupling_phase(float(t), p))
    # Each word's net level shift.
    d_a, d_b = (w.count("+") - w.count("-") for w in (word_a, word_b))

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
    sum_a = _mode_sum(word_a, d_a, p.N_a0, p.chi_a, t, d_b * theta)
    sum_b = _mode_sum(word_b, d_b, p.N_b0, p.chi_b, t, d_a * theta)
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
