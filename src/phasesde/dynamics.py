"""Drift and noise-factor evaluation for each simulation method.

All methods share the phase-space ordering (alpha, alpha_plus, beta,
beta_plus).  Drifts have the rotation structure

    d alpha      = -i F_a alpha dt + noise
    d alpha_plus = +i F_a alpha_plus dt + noise

(and likewise for the b pair with F_b), where the effective frequencies
F_a, F_b depend on the method's ordering constants:

  mixed (a symmetric, b normal):   F_a = omega_a + 2 chi_a (a+a - 1) + g b+b
                                   F_b = omega_b + 2 chi_b b+b + g (a+a - 1/2)
  both normal (positive-P):        F_a = omega_a + 2 chi_a a+a + g b+b
                                   F_b = omega_b + 2 chi_b b+b + g a+a
  both symmetric (trunc. Wigner):  F_a = omega_a + 2 chi_a (|a|^2 - 1) + g (|b|^2 - 1/2)
                                   F_b = omega_b + 2 chi_b (|b|^2 - 1) + g (|a|^2 - 1/2)
  further-truncated hybrid:        mixed F_a, F_b with b+b replaced by Re(b+b);
                                   a+a stays real under the conserving update

Noise factors B satisfy B B^T = D (plain transpose) for the method's
diffusion matrix D; any B with that property gives statistically
equivalent trajectories, so the column layout below is fixed purely for
reproducibility of seeded runs.  Complex square roots use the principal
branch throughout.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import PhasePoint, SystemParams

__all__ = [
    "DriftVector",
    "hybrid_drift",
    "hybrid_noise_factor",
    "hybrid_diffusion",
    "positive_p_drift",
    "positive_p_noise_factor",
    "positive_p_diffusion",
    "positive_p_mode_factor",
    "wigner_truncated",
    "hybrid_frequencies",
    "positive_p_frequencies",
    "wigner_frequencies",
    "hybrid_noise_coefficients",
]


class DriftVector(NamedTuple):
    d_alpha: complex
    d_alpha_plus: complex
    d_beta: complex
    d_beta_plus: complex


# --------------------------------------------------------------------------
# effective frequencies (shared by the full-matrix API and the integrator)
# --------------------------------------------------------------------------


def hybrid_frequencies(apa, bpb, params: SystemParams, g):
    """(F_a, F_b) for the mixed-ordering method; works on arrays."""
    f_a = params.omega_a + 2.0 * params.chi_a * (apa - 1.0) + g * bpb
    f_b = params.omega_b + 2.0 * params.chi_b * bpb + g * (apa - 0.5)
    return f_a, f_b


def positive_p_frequencies(apa, bpb, params: SystemParams, g):
    f_a = params.omega_a + 2.0 * params.chi_a * apa + g * bpb
    f_b = params.omega_b + 2.0 * params.chi_b * bpb + g * apa
    return f_a, f_b


def wigner_frequencies(na, nb, params: SystemParams, g):
    """(F_a, F_b) from the real occupations |alpha|^2, |beta|^2."""
    f_a = params.omega_a + 2.0 * params.chi_a * (na - 1.0) + g * (nb - 0.5)
    f_b = params.omega_b + 2.0 * params.chi_b * (nb - 1.0) + g * (na - 0.5)
    return f_a, f_b


# (F_a, F_b) of each method at the point (a, ap, b, bp): the one place that
# picks the occupations a method's frequencies see.  The frequency
# functions are looked up as module globals at call time.
FREQUENCIES = {
    "hybrid": lambda a, ap, b, bp, params, g: hybrid_frequencies(
        ap * a, bp * b, params, g),
    "hybrid_truncated": lambda a, ap, b, bp, params, g: hybrid_frequencies(
        ap * a, np.real(bp * b), params, g),
    "positive_p": lambda a, ap, b, bp, params, g: positive_p_frequencies(
        ap * a, bp * b, params, g),
    "wigner": lambda a, ap, b, bp, params, g: wigner_frequencies(
        np.real(ap * a), np.real(bp * b), params, g),
}


def hybrid_noise_coefficients(params: SystemParams, g):
    """(q, s): interface and Kerr noise amplitudes for the mixed method.

    q scales the four-variable interface noise, s the b-mode Kerr noise.
    ``g`` may be an array (one coupling per substep); q then has its shape.
    """
    q = 0.5 * np.sqrt(-1j * g + 0j)
    s = np.sqrt(2j * params.chi_b + 0j)
    return q, s


def _rotation_drift(method: str, p: PhasePoint, params: SystemParams,
                    g) -> DriftVector:
    """The shared drift form: alpha rotates by -i F_a, alpha_plus by +i F_a.

    F_a and F_b come from the method's entry in ``FREQUENCIES``.
    """
    f_a, f_b = FREQUENCIES[method](
        p.alpha, p.alpha_plus, p.beta, p.beta_plus, params, g)
    return DriftVector(
        -1j * f_a * p.alpha,
        +1j * f_a * p.alpha_plus,
        -1j * f_b * p.beta,
        +1j * f_b * p.beta_plus,
    )


# --------------------------------------------------------------------------
# mixed-ordering (hybrid) method
# --------------------------------------------------------------------------


def hybrid_drift(p: PhasePoint, params: SystemParams, g) -> DriftVector:
    return _rotation_drift("hybrid", p, params, g)


def hybrid_noise_factor(p: PhasePoint, params: SystemParams, g) -> np.ndarray:
    """4x4 noise factor B for the mixed method (four real noises).

    Columns 1-2 carry the b-mode Kerr noise, columns 3-4 the interface
    noise shared by both modes.
    """
    q, s = hybrid_noise_coefficients(params, g)
    a, ap, b, bp = p.alpha, p.alpha_plus, p.beta, p.beta_plus
    zero = 0.0 * (a + b)  # matches array shapes when components are arrays
    B = np.array(
        [
            [zero, zero, q * a, 1j * q * a],
            [zero, zero, -q * ap, -1j * q * ap],
            [1j * s * b, zero, q * b, -1j * q * b],
            [zero, s * bp, q * bp, -1j * q * bp],
        ],
        dtype=complex,
    )
    return B


def hybrid_diffusion(p: PhasePoint, params: SystemParams, g) -> np.ndarray:
    """Diffusion matrix D of the mixed method, built directly.

    Serves as the independent target for the factorization check
    B B^T = D; the upper-left 2x2 block is identically zero.
    """
    a, ap, b, bp = p.alpha, p.alpha_plus, p.beta, p.beta_plus
    hg = 0.5j * g
    D = np.zeros((4, 4), dtype=complex)
    D[0, 2] = D[2, 0] = -hg * a * b
    D[0, 3] = D[3, 0] = -hg * a * bp
    D[1, 2] = D[2, 1] = +hg * ap * b
    D[1, 3] = D[3, 1] = +hg * ap * bp
    D[2, 2] = -2j * params.chi_b * b * b
    D[3, 3] = +2j * params.chi_b * bp * bp
    return D


# --------------------------------------------------------------------------
# two-mode positive-P
# --------------------------------------------------------------------------


def positive_p_mode_factor(chi_a: float, chi_b: float, g: float) -> np.ndarray:
    """2x2 complex factor F (rows a, b) with F F^T = M.

    M = [[-2i chi_a, -i g], [-i g, -2i chi_b]] is the per-unit-amplitude
    diffusion of the (alpha, beta) pair.  A Cholesky-style factor is used,
    pivoted to whichever Kerr term is larger so a vanishing chi_a still
    factorizes; with both Kerr terms zero the remaining pure-coupling M
    gets an explicit symmetric factor.
    """
    m_aa = -2j * chi_a
    m_bb = -2j * chi_b
    m_ab = -1j * g
    if chi_a == 0.0 and chi_b == 0.0:
        if g == 0.0:
            return np.zeros((2, 2), dtype=complex)
        r = np.sqrt(m_ab) / np.sqrt(2.0)
        return np.array([[r, 1j * r], [r, -1j * r]], dtype=complex)
    if abs(chi_a) >= abs(chi_b):
        l11 = np.sqrt(m_aa)
        l21 = m_ab / l11
        l22 = np.sqrt(m_bb - l21 ** 2)
        return np.array([[l11, 0.0], [l21, l22]], dtype=complex)
    l11 = np.sqrt(m_bb)
    l21 = m_ab / l11
    l22 = np.sqrt(m_aa - l21 ** 2)
    return np.array([[l21, l22], [l11, 0.0]], dtype=complex)


def positive_p_drift(p: PhasePoint, params: SystemParams, g) -> DriftVector:
    return _rotation_drift("positive_p", p, params, g)


def positive_p_noise_factor(p: PhasePoint, params: SystemParams, g) -> np.ndarray:
    """4x4 noise factor for the two-mode positive-P method.

    Columns 1-2 drive (alpha, beta), columns 3-4 drive the plus pair with
    an extra factor i, which flips the sign of the diffusion block as
    required for the plus variables.
    """
    F = positive_p_mode_factor(params.chi_a, params.chi_b, g)
    a, ap, b, bp = p.alpha, p.alpha_plus, p.beta, p.beta_plus
    B = np.zeros((4, 4), dtype=complex)
    B[0, 0] = a * F[0, 0]
    B[0, 1] = a * F[0, 1]
    B[2, 0] = b * F[1, 0]
    B[2, 1] = b * F[1, 1]
    B[1, 2] = 1j * ap * F[0, 0]
    B[1, 3] = 1j * ap * F[0, 1]
    B[3, 2] = 1j * bp * F[1, 0]
    B[3, 3] = 1j * bp * F[1, 1]
    return B


def positive_p_diffusion(p: PhasePoint, params: SystemParams, g) -> np.ndarray:
    """Diffusion matrix of the two-mode positive-P method.

    Kerr terms sit on the diagonal; the coupling contributes only the
    (alpha, beta) and (alpha_plus, beta_plus) cross entries.
    """
    a, ap, b, bp = p.alpha, p.alpha_plus, p.beta, p.beta_plus
    D = np.zeros((4, 4), dtype=complex)
    D[0, 0] = -2j * params.chi_a * a * a
    D[1, 1] = +2j * params.chi_a * ap * ap
    D[2, 2] = -2j * params.chi_b * b * b
    D[3, 3] = +2j * params.chi_b * bp * bp
    D[0, 2] = D[2, 0] = -1j * g * a * b
    D[1, 3] = D[3, 1] = +1j * g * ap * bp
    return D


# --------------------------------------------------------------------------
# truncated Wigner
# --------------------------------------------------------------------------


def wigner_truncated(p: PhasePoint, params: SystemParams, g) -> DriftVector:
    """Drift of the truncated Wigner method; the noise factor is zero.

    Expects conjugate-symmetric points (alpha_plus = conj(alpha)), which
    the flow preserves.  The effective frequencies are real there, so
    |alpha|^2 and |beta|^2 are conserved along every trajectory.
    """
    return _rotation_drift("wigner", p, params, g)
