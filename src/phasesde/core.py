"""Shared domain types for the phase-space SDE engine.

Two bosonic Kerr oscillators (modes a and b) are simulated on a doubled
phase space with coordinates (alpha, alpha_plus, beta, beta_plus).  The
"plus" coordinates are independent complex variables; they coincide with
complex conjugates only for conjugate-symmetric sampling schemes.  Each
method tags every mode with an ordering parameter r: r=1 means the mode's
stochastic moments estimate normally ordered operator products, r=2 means
symmetrically ordered products.

Units: hbar = 1 and time is dimensionless, so omega_a, omega_b, chi_a,
chi_b and g are all plain real numbers.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

__all__ = [
    "METHOD_NAMES",
    "METHOD_TAGS",
    "MONOMIALS",
    "ConfigError",
    "PhasePoint",
    "CouplingSchedule",
    "SystemParams",
    "MethodSpec",
    "EnsembleConfig",
    "EnsembleResult",
    "validate_config",
    "config_violations",
]

METHOD_NAMES = ("hybrid", "hybrid_truncated", "positive_p", "wigner")

# (r_a, r_b) forced by each method.
METHOD_TAGS = {
    "hybrid": (2, 1),
    "hybrid_truncated": (2, 1),
    "positive_p": (1, 1),
    "wigner": (2, 2),
}

# Raw monomials accumulated per batch at every sample time, in storage order.
MONOMIALS = (
    "alpha",
    "alpha_plus",
    "beta",
    "beta_plus",
    "alpha_plus_alpha",
    "beta_plus_beta",
    "alpha_plus_alpha_sq",
    "beta_sq",
    "beta_plus_sq",
    "alpha_plus_alpha_beta",
    "alpha_plus_alpha_beta_plus",
)


class ConfigError(ValueError):
    """A run configuration violates one or more invariants.

    The full list of violations is kept in ``violations``; the message joins
    them so a single raise reports everything that is wrong.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class PhasePoint:
    """One point of the doubled phase space."""

    alpha: complex
    alpha_plus: complex
    beta: complex
    beta_plus: complex


@dataclass(frozen=True)
class CouplingSchedule:
    """Piecewise-constant coupling strength g(t).

    ``segments`` is an ordered tuple of (t_end, g) pairs; the final t_end
    must be +inf so every t >= 0 falls in exactly one segment.  Evaluation
    is right-continuous: at a breakpoint the following segment's value
    applies.
    """

    segments: tuple

    def __post_init__(self):
        norm = tuple((float(t_end), float(g)) for t_end, g in self.segments)
        object.__setattr__(self, "segments", norm)

    @classmethod
    def constant(cls, g: float) -> "CouplingSchedule":
        return cls(((math.inf, g),))

    @classmethod
    def switched(cls, g: float, t_off: float, g_after: float = 0.0) -> "CouplingSchedule":
        """g until t_off, then g_after from t_off onward."""
        return cls(((t_off, g), (math.inf, g_after)))

    def g_at(self, t: float) -> float:
        ends = [seg[0] for seg in self.segments]
        idx = bisect_right(ends, t)
        if idx >= len(self.segments):
            idx = len(self.segments) - 1
        return self.segments[idx][1]

    def breakpoints(self) -> tuple:
        """Finite segment boundaries, ascending."""
        return tuple(t for t, _ in self.segments if math.isfinite(t))

    def violations(self) -> list:
        out = []
        if not self.segments:
            out.append("coupling must have at least one segment")
            return out
        ends = [seg[0] for seg in self.segments]
        if any(b <= a for a, b in zip(ends, ends[1:])):
            out.append("coupling t_end values must be strictly increasing")
        if not all(math.isfinite(t) and t > 0 for t in ends[:-1]):
            out.append("coupling t_end values before the last segment must "
                       "be finite and positive")
        if not math.isinf(ends[-1]):
            out.append("coupling final segment must have t_end = +inf")
        if any(not math.isfinite(g) for _, g in self.segments):
            out.append("coupling g values must be finite")
        return out


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the two coupled Kerr oscillators."""

    omega_a: float
    omega_b: float
    chi_a: float
    chi_b: float
    coupling: CouplingSchedule

    def violations(self) -> list:
        out = []
        for name in ("omega_a", "omega_b", "chi_a", "chi_b"):
            if not math.isfinite(getattr(self, name)):
                out.append(f"{name} must be a finite real")
        out.extend(self.coupling.violations())
        return out


@dataclass(frozen=True)
class MethodSpec:
    """A simulation method; it alone fixes the ordering tags ``r_a`` and
    ``r_b``, which are read from ``METHOD_TAGS``, never set."""

    method: str

    def __post_init__(self):
        if self.method not in METHOD_TAGS:
            raise ValueError(f"unknown method {self.method!r}")

    @property
    def r_a(self) -> int:
        return METHOD_TAGS[self.method][0]

    @property
    def r_b(self) -> int:
        return METHOD_TAGS[self.method][1]

    @classmethod
    def of(cls, name) -> "MethodSpec":
        """The spec of a method name; a MethodSpec is returned unchanged."""
        if isinstance(name, MethodSpec):
            return name
        return cls(name)


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything a reproducible ensemble run needs besides the physics.

    blowup_threshold is expressed in units of max(1, sqrt(N_a0)); a
    trajectory whose any phase-space component exceeds it in magnitude (or
    goes non-finite) is frozen and excluded from later accumulation.
    """

    n_trajectories: int
    dt: float
    t_final: float
    N_a0: float
    N_b0: float
    n_batches: int = 10
    sample_interval: int = 1
    master_seed: int = 0
    blowup_threshold: float = 1e6

    def violations(self) -> list:
        out = []
        if not (isinstance(self.n_trajectories, int) and self.n_trajectories >= 1):
            out.append("n_trajectories must be a positive integer")
        if not (isinstance(self.n_batches, int) and self.n_batches >= 1):
            out.append("n_batches must be a positive integer")
        elif isinstance(self.n_trajectories, int) and self.n_trajectories >= 1 \
                and self.n_trajectories % self.n_batches != 0:
            out.append("n_batches must divide n_trajectories")
        if not (math.isfinite(self.dt) and self.dt > 0):
            out.append("dt must be a positive real")
        if not (math.isfinite(self.t_final) and self.t_final >= 0):
            out.append("t_final must be a non-negative real")
        if not (isinstance(self.sample_interval, int) and self.sample_interval >= 1):
            out.append("sample_interval must be a positive integer")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2 ** 64):
            out.append("master_seed must be a 64-bit unsigned integer")
        for name in ("N_a0", "N_b0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                out.append(f"{name} must be a non-negative finite real")
        if not (math.isfinite(self.blowup_threshold) and self.blowup_threshold > 0):
            out.append("blowup_threshold must be a positive real")
        return out


def config_violations(config: EnsembleConfig, method: MethodSpec,
                      params: SystemParams) -> list:
    """Collect every violated invariant, naming the offending field."""
    out = []
    out.extend(config.violations())
    out.extend(params.violations())
    if not isinstance(method, MethodSpec):
        out.append("method must be a MethodSpec")
    # A step must never be longer than the coupling segment it runs in.
    if math.isfinite(config.dt) and config.dt > 0:
        prev = 0.0
        for t_end in params.coupling.breakpoints():
            if t_end - prev < config.dt - 1e-12 * max(1.0, config.dt):
                out.append(
                    "dt must not exceed any coupling segment length "
                    f"(segment ending at t={t_end:g} is shorter than dt)"
                )
            prev = t_end
    return out


def validate_config(config: EnsembleConfig, method: MethodSpec,
                    params: SystemParams) -> None:
    """Raise ConfigError listing every violation, if there is any.

    Values are never repaired silently; the caller must fix the config.
    """
    violations = config_violations(config, method, params)
    if violations:
        raise ConfigError(violations)


@dataclass
class EnsembleResult:
    """Batch-structured raw-moment sums recorded at each sample time.

    sums[s, b, m] is the sum of monomial MONOMIALS[m] over the live
    trajectories of batch b at sample s; live_counts[s, b] is how many
    contributed.  ``method`` fixes the ordering corrections every
    observable of the result takes.
    """

    times: np.ndarray
    sums: np.ndarray
    live_counts: np.ndarray
    live_fraction: np.ndarray
    blowup_times: np.ndarray
    method: MethodSpec
    params: SystemParams
    config: EnsembleConfig
    # Per-trajectory max relative drift of alpha_plus*alpha, when the run
    # was asked to record it; None otherwise.
    gauge_drift: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def moment_means(self) -> dict:
        """Per-batch live means of every monomial at every sample time.

        Each value is a (samples, batches) array.  Batches with no live
        trajectories yield NaN means.
        """
        counts = self.live_counts.astype(float)[:, :, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            means = self.sums / counts
        means = np.where(counts > 0, means, np.nan + 0j)
        return {name: means[..., i] for i, name in enumerate(MONOMIALS)}
