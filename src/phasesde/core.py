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
import numbers
from dataclasses import dataclass
from functools import cached_property

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
]

# (r_a, r_b) forced by each method, in the order of _kernel.c's method enum.
METHOD_TAGS = {
    "hybrid": (2, 1),
    "hybrid_truncated": (2, 1),
    "positive_p": (1, 1),
    "wigner": (2, 2),
}

METHOD_NAMES = tuple(METHOD_TAGS)

# Most steps t_final / dt of a run: a run builds per-substep arrays of the
# plan and the noise coefficients once, 40-88 bytes a substep, and every
# chunk reads them.
MAX_STEPS = 10**6

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


def _real(value) -> bool:
    """A real number, but not a bool: a bool is no physical value."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite(value) -> bool:
    try:
        return _real(value) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _pair(segment) -> bool:
    return isinstance(segment, (tuple, list)) and len(segment) == 2


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
    must be +inf so every t >= 0 falls in exactly one segment.  A substep
    takes the g of the segment holding its midpoint.
    """

    segments: tuple

    def __post_init__(self):
        # Finite reals become floats; anything else, and a segment that is
        # not a pair, is kept for violations().
        norm = tuple(tuple(float(v) if _finite(v) else v for v in seg)
                     if _pair(seg) else seg for seg in self.segments)
        object.__setattr__(self, "segments", norm)

    @classmethod
    def constant(cls, g: float) -> "CouplingSchedule":
        return cls(((math.inf, g),))

    @classmethod
    def switched(cls, g: float, t_off: float) -> "CouplingSchedule":
        """g until t_off, then 0 from t_off onward."""
        return cls(((t_off, g), (math.inf, 0.0)))

    def breakpoints(self) -> tuple:
        """Finite segment boundaries, ascending."""
        return tuple(seg[0] for seg in self.segments
                     if _pair(seg) and _finite(seg[0]))

    def violations(self) -> list:
        out = []
        if not self.segments:
            out.append("coupling must have at least one segment")
            return out
        if not all(_pair(seg) for seg in self.segments):
            out.append("coupling segments must be (t_end, g) pairs")
            return out
        ends = [seg[0] for seg in self.segments]
        if not all(_real(t) for t in ends):
            out.append("coupling t_end values must be reals")
        else:
            if any(b <= a for a, b in zip(ends, ends[1:])):
                out.append("coupling t_end values must be strictly increasing")
            if not all(_finite(t) and t > 0 for t in ends[:-1]):
                out.append("coupling t_end values before the last segment "
                           "must be finite and positive")
            if ends[-1] != math.inf:
                out.append("coupling final segment must have t_end = +inf")
        if any(not _finite(g) for _, g in self.segments):
            out.append("coupling g values must be finite reals")
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
            if not _finite(getattr(self, name)):
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

    ``lane_threshold`` is blowup_threshold * max(1, sqrt(N_a0)); a
    trajectory whose any phase-space component exceeds it in magnitude (or
    goes non-finite) dies and is excluded from later accumulation.  That
    threshold must be below 2**200, and N_a0 and N_b0 below 2**398, as
    record 0 is sqrt(N) plus half a normal (none is below -37.52).  So no
    recorded amplitude reaches 2**200, and no monomial or chunk sum of
    them overflows: both engines record the same bytes.
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

    @property
    def lane_threshold(self) -> float:
        return self.blowup_threshold * max(1.0, math.sqrt(self.N_a0))

    @property
    def coherent_start(self) -> tuple:
        """(sqrt(N_a0), sqrt(N_b0)), where both engines start each lane."""
        return math.sqrt(self.N_a0), math.sqrt(self.N_b0)

    def violations(self) -> list:
        # type(...) is int: a bool is an int, but not a count or a seed;
        # _finite likewise keeps a bool out of the real fields.
        out = []
        if not (type(self.n_trajectories) is int and self.n_trajectories >= 1):
            out.append("n_trajectories must be a positive integer")
        if not (type(self.n_batches) is int and self.n_batches >= 1):
            out.append("n_batches must be a positive integer")
        elif type(self.n_trajectories) is int and self.n_trajectories >= 1 \
                and self.n_trajectories % self.n_batches != 0:
            out.append("n_batches must divide n_trajectories")
        if not (_finite(self.dt) and self.dt > 0):
            out.append("dt must be a positive real")
        if not (_finite(self.t_final) and self.t_final >= 0):
            out.append("t_final must be a non-negative real")
        elif _finite(self.dt) and self.dt > 0:
            steps = self.t_final / self.dt
            if not math.isfinite(steps):
                out.append("t_final / dt must be finite")
            elif steps > MAX_STEPS + 1e-9:  # build_step_plan's rounding
                out.append(f"t_final / dt must be at most {MAX_STEPS}")
        if not (type(self.sample_interval) is int and self.sample_interval >= 1):
            out.append("sample_interval must be a positive integer")
        if not (type(self.master_seed) is int and 0 <= self.master_seed < 2 ** 64):
            out.append("master_seed must be a 64-bit unsigned integer")
        for name in ("N_a0", "N_b0"):
            v = getattr(self, name)
            if not (_finite(v) and 0 <= v < 2.0 ** 398):
                out.append(f"{name} must be a non-negative real below 2**398")
        if not (_finite(self.blowup_threshold) and self.blowup_threshold > 0):
            out.append("blowup_threshold must be a positive real")
        elif _finite(self.N_a0) and self.N_a0 >= 0 \
                and self.lane_threshold >= 2.0 ** 200:
            out.append("blowup_threshold * max(1, sqrt(N_a0)) must be < 2**200")
        return out


def validate_config(config: EnsembleConfig, method: MethodSpec,
                    params: SystemParams) -> None:
    """Raise ConfigError listing every violation by field, if there is any.

    Values are never repaired silently; the caller must fix the config.
    """
    out = config.violations() + params.violations()
    if not isinstance(method, MethodSpec):
        out.append("method must be a MethodSpec")
    # A step must never be longer than the coupling segment it runs in.
    if _finite(config.dt) and config.dt > 0:
        prev = 0.0
        for t_end in params.coupling.breakpoints():
            if t_end - prev < config.dt - 1e-12 * max(1.0, config.dt):
                out.append(
                    "dt must not exceed any coupling segment length "
                    f"(segment ending at t={t_end:g} is shorter than dt)"
                )
            prev = t_end
    if out:
        raise ConfigError(out)


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

    @property
    def live_fraction(self) -> np.ndarray:
        """Share of all trajectories alive at each sample time."""
        return self.live_counts.sum(axis=1) / float(self.config.n_trajectories)

    def moment_means(self) -> dict:
        """Per-batch live means of every monomial at every sample time.

        Each value is a read-only (samples, batches) array, computed once
        per result.  Batches with no live trajectories yield NaN means.
        """
        return dict(self._means)

    @cached_property
    def _means(self) -> dict:
        counts = self.live_counts.astype(float)[:, :, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            means = self.sums / counts
        means = np.where(counts > 0, means, np.nan + 0j)
        means.flags.writeable = False
        return {name: means[..., i] for i, name in enumerate(MONOMIALS)}
