"""Ensemble integration with counter-based seeding and blow-up handling.

Each trajectory owns a Philox stream keyed by (master_seed, trajectory
index) and consumes it in a fixed documented order: first the initial
sampling draws (mode a, then mode b), then four noise draws per substep.
Normals always come from the inverse CDF of the stream's uniforms, so the
consumption count never depends on platform or on the values drawn.
Trajectories are processed in fixed-size chunks.  With more than one
worker the chunks run in forked worker processes, and their partials are
merged in chunk order as they arrive, which makes results bit-identical
for a given config no matter how many workers run the chunks.

Every method takes the same split step: a multiplicative noise kick at
the pre-step point, then the exact rotation exp(-i F dt), which divides
the plus variables by the same factor and so conserves alpha_plus*alpha
and beta_plus*beta to machine precision.

Each chunk runs on one of two engines that give the same bytes: the
native kernel of ``_kernel.c``, which does a chunk's stream set-up,
initial sampling, substeps and records in one call and is used once it
has loaded and matched the numpy loop on a small probe, or the numpy
loop, which is the reference and the fallback.
"""
from __future__ import annotations

import cmath
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .core import (
    METHOD_NAMES,
    MONOMIALS,
    ConfigError,
    CouplingSchedule,
    EnsembleConfig,
    EnsembleResult,
    MethodSpec,
    SystemParams,
    validate_config,
)
from .representations import (
    CoherentInit,
    draw_standard_normals,
    sample_positive_p_coherent,
    sample_wigner_coherent,
)

__all__ = [
    "TrajectoryRecord",
    "StepPlan",
    "build_step_plan",
    "simulate_trajectory",
    "run_ensemble",
]

# Trajectories per work unit.  Fixed (never derived from worker count) so
# the partial-sum grouping, and hence the output bytes, are reproducible.
CHUNK_SIZE = 2048

# Substeps of noise drawn per trajectory at a time.
NOISE_BLOCK = 256


def make_stream(master_seed: int, trajectory_index: int) -> np.random.Generator:
    """The dedicated counter-based stream of one trajectory."""
    key = np.array([master_seed, trajectory_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# --------------------------------------------------------------------------
# time grid
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StepPlan:
    """Substep schedule for one run.

    Nominal steps sit on the grid k*dt; a coupling breakpoint strictly
    inside a nominal step splits it into shortened auxiliary substeps that
    land on the breakpoint exactly.  Auxiliary substeps do not advance the
    sampling cadence: samples are recorded after nominal step k whenever k
    is a multiple of sample_interval, plus the final time.
    """

    sub_dt: np.ndarray
    sub_g: np.ndarray
    sub_t_end: np.ndarray
    record_after: np.ndarray
    sample_times: np.ndarray

    @property
    def n_substeps(self) -> int:
        return len(self.sub_dt)

    @property
    def n_samples(self) -> int:
        return len(self.sample_times)


def build_step_plan(config: EnsembleConfig, params: SystemParams) -> StepPlan:
    dt = config.dt
    t_final = config.t_final
    tol = 1e-9 * dt
    n_nominal = int(math.floor(t_final / dt + 1e-9))
    remainder = t_final - n_nominal * dt
    has_tail = remainder > tol
    breaks = [
        t for t in params.coupling.breakpoints() if tol < t < t_final - tol
    ]

    sub_dt, sub_g, sub_t_end, record_after = [], [], [], []
    sample_times = [0.0]
    schedule = params.coupling

    def extend(t0, t1):
        inner = [t for t in breaks if t0 + tol < t < t1 - tol]
        pts = [t0, *inner, t1]
        for lo, hi in zip(pts, pts[1:]):
            sub_dt.append(hi - lo)
            sub_g.append(schedule.g_at(0.5 * (lo + hi)))
            sub_t_end.append(hi)
            record_after.append(False)

    for k in range(n_nominal):
        extend(k * dt, (k + 1) * dt)
        is_last = (k + 1 == n_nominal) and not has_tail
        if (k + 1) % config.sample_interval == 0 or is_last:
            record_after[-1] = True
            sample_times.append((k + 1) * dt)
    if has_tail:
        extend(n_nominal * dt, t_final)
        record_after[-1] = True
        sample_times.append(t_final)

    return StepPlan(
        sub_dt=np.asarray(sub_dt, dtype=float),
        sub_g=np.asarray(sub_g, dtype=float),
        sub_t_end=np.asarray(sub_t_end, dtype=float),
        record_after=np.asarray(record_after, dtype=bool),
        sample_times=np.asarray(sample_times, dtype=float),
    )


def _substep_coefficients(method: MethodSpec, params: SystemParams, plan: StepPlan):
    """Per-substep noise scalars, precomputed once and shared by chunks."""
    name = method.method
    if name in ("hybrid", "hybrid_truncated"):
        q, s = dynamics.hybrid_noise_coefficients(params, plan.sub_g)
        return {"q": q, "s": complex(s)}
    if name == "positive_p":
        # One factor per distinct g, made from its first substep's value.
        _, first, which = np.unique(plan.sub_g, return_index=True,
                                    return_inverse=True)
        table = np.array([
            dynamics.positive_p_mode_factor(params.chi_a, params.chi_b, g)
            for g in plan.sub_g[first]], dtype=complex).reshape(-1, 2, 2)
        return {"F": table[which]}
    return {}


# --------------------------------------------------------------------------
# per-method kicks
# --------------------------------------------------------------------------
#
# A kick maps the pre-step point to x_mid; its linear term is B(p) xi
# sqrt(dt) for the method's noise factor in ``dynamics``.


def _hybrid_kick(coeffs, j, x, sdt, a, ap, b, bp, exact_pair=False):
    q, s = coeffs["q"][j], coeffs["s"]
    e3 = x[:, 2] + 1j * x[:, 3]
    em = x[:, 2] - 1j * x[:, 3]
    if exact_pair:
        # Exact exponential pair: keeps alpha_plus*alpha real under the
        # interface noise.
        ee = np.exp(q * e3 * sdt)
        a_mid, ap_mid = a * ee, ap / ee
    else:
        a_mid, ap_mid = a * (1.0 + q * e3 * sdt), ap * (1.0 - q * e3 * sdt)
    return (a_mid, ap_mid, b * (1.0 + (1j * s * x[:, 0] + q * em) * sdt),
            bp * (1.0 + (s * x[:, 1] + q * em) * sdt))


def _positive_p_kick(coeffs, j, x, sdt, a, ap, b, bp):
    F = coeffs["F"][j]
    mult_a = (F[0, 0] * x[:, 0] + F[0, 1] * x[:, 1]) * sdt
    mult_b = (F[1, 0] * x[:, 0] + F[1, 1] * x[:, 1]) * sdt
    mult_ap = 1j * (F[0, 0] * x[:, 2] + F[0, 1] * x[:, 3]) * sdt
    mult_bp = 1j * (F[1, 0] * x[:, 2] + F[1, 1] * x[:, 3]) * sdt
    return (a * (1.0 + mult_a), ap * (1.0 + mult_ap),
            b * (1.0 + mult_b), bp * (1.0 + mult_bp))


# The noiseless method has no kick.
_KICKS = {
    "hybrid": _hybrid_kick,
    "hybrid_truncated": functools.partial(_hybrid_kick, exact_pair=True),
    "positive_p": _positive_p_kick,
}


# --------------------------------------------------------------------------
# chunk engine
# --------------------------------------------------------------------------


def _initial_arrays(indices, method: MethodSpec, init: CoherentInit,
                    master_seed: int):
    """Initial phase-space arrays plus the per-trajectory streams.

    Consumption order within each stream: mode a draws first, then mode b;
    delta-sampled modes consume nothing.
    """
    a, ap, b, bp = np.empty((4, len(indices)), dtype=complex)
    gens = [make_stream(master_seed, int(i)) for i in indices]
    for j, gen in enumerate(gens):
        if method.r_a == 2:
            a[j], ap[j] = sample_wigner_coherent(init.gamma_a, gen)
        else:
            a[j], ap[j] = sample_positive_p_coherent(init.gamma_a)
        if method.r_b == 2:
            b[j], bp[j] = sample_wigner_coherent(init.gamma_b, gen)
        else:
            b[j], bp[j] = sample_positive_p_coherent(init.gamma_b)
    return a, ap, b, bp, gens


def _simulate_chunk(indices, method: MethodSpec, params: SystemParams,
                    config: EnsembleConfig, init: CoherentInit, plan: StepPlan,
                    coeffs, noise_free: bool, record_gauge: bool,
                    threshold: float):
    """Integrate one chunk of trajectories; returns per-chunk partials."""
    return _chunk(_native, indices, method, params, config, init, plan,
                  coeffs, noise_free, record_gauge, threshold)


def _chunk(native, indices, method, params, config, init, plan, coeffs,
           noise_free, record_gauge, threshold):
    """``_simulate_chunk`` on ``native``: a loaded kernel, or False for the
    numpy loop.  Separate so the probe runs both without touching
    ``_native``."""
    n_batches = config.n_batches
    m = len(indices)
    n_samples = plan.n_samples

    sums = np.zeros((n_samples, n_batches, len(MONOMIALS)), dtype=complex)
    live_counts = np.zeros((n_samples, n_batches), dtype=np.int64)
    blow_t = np.full(m, np.nan)
    gauge_max = np.zeros(m)
    kick = None if noise_free else _KICKS.get(method.method)
    if native:
        # Streams, initial sampling, substeps and records in one call.
        if native.run_chunk(method, kick is not None, record_gauge, init,
                            config.master_seed, int(indices[0]), plan,
                            coeffs, params, threshold, sums, live_counts,
                            blow_t, gauge_max):
            return {"sums": sums, "live_counts": live_counts,
                    "blowup_times": blow_t, "gauge_max": gauge_max}
        # A recorded lane was huge or not finite; numpy sets the nan bits.
        return _chunk(False, indices, method, params, config, init, plan,
                      coeffs, noise_free, record_gauge, threshold)

    a, ap, b, bp, gens = _initial_arrays(indices, method, init,
                                         config.master_seed)
    live = np.ones(m, dtype=bool)

    # Both callers pass contiguous indices, so lane k belongs to batch
    # (indices[0] + k) % n_batches.  Lane k sits at row off + k of a zeroed
    # buffer of rows * n_batches rows; viewed as (rows, n_batches, ...),
    # each batch is one column, and a reduce over the rows adds its lanes
    # one after another in lane order.  Added into a zero row with +=,
    # this gives the bytes of a lane-by-lane scatter-add, signed zeros
    # included; a matrix product would let BLAS reorder the sums.
    off = int(indices[0]) % n_batches
    rows = -(-(off + m) // n_batches)
    buf = np.zeros((rows * n_batches, len(MONOMIALS)), dtype=complex)
    lane_live = np.zeros(rows * n_batches, dtype=np.int64)
    lanes = buf[off:off + m]

    def record(sample_index):
        apa = ap * a
        # Columns in MONOMIALS order.
        for col, v in enumerate((a, ap, b, bp, apa, bp * b, apa * apa, b * b,
                                 bp * bp, apa * b, apa * bp)):
            lanes[:, col] = v
        lane_live[off:off + m] = live
        if not live.all():
            lanes[~live] = 0.0
        sums[sample_index] += np.add.reduce(
            buf.reshape(rows, n_batches, -1), axis=0)
        live_counts[sample_index] += np.add.reduce(
            lane_live.reshape(rows, n_batches), axis=0)

    frequencies = dynamics.FREQUENCIES[method.method]
    # Truncated Wigner points stay conjugate-symmetric.
    conjugate = method.method == "wigner"
    xi = None

    def numpy_advance(j0, j1):
        """Substeps j0..j1-1; noise is drawn NOISE_BLOCK substeps at a time."""
        nonlocal a, ap, b, bp, live, gauge_max, xi
        for j in range(j0, j1):
            if kick is not None and j % NOISE_BLOCK == 0:
                block_len = min(NOISE_BLOCK, plan.n_substeps - j)
                xi = np.empty((m, block_len, 4))
                for k, gen in enumerate(gens):
                    xi[k] = draw_standard_normals(
                        gen, block_len * 4).reshape(block_len, 4)
            dt_s = plan.sub_dt[j]
            f_a, f_b = frequencies(a, ap, b, bp, params, plan.sub_g[j])
            if kick is not None:
                a_mid, ap_mid, b_mid, bp_mid = kick(
                    coeffs, j, xi[:, j % NOISE_BLOCK, :], math.sqrt(dt_s),
                    a, ap, b, bp)
            else:
                a_mid, ap_mid, b_mid, bp_mid = a, ap, b, bp
            rot_a = np.exp(-1j * f_a * dt_s)
            rot_b = np.exp(-1j * f_b * dt_s)
            a = a_mid * rot_a
            b = b_mid * rot_b
            if conjugate:
                ap = np.conj(a)
                bp = np.conj(b)
            else:
                ap = ap_mid / rot_a
                bp = bp_mid / rot_b

            bad = np.zeros(m, dtype=bool)
            for v in (a, ap, b, bp):
                bad |= ~np.isfinite(v) | (np.abs(v) > threshold)
            newly = bad & live
            if newly.any():
                blow_t[newly] = plan.sub_t_end[j]
                live &= ~bad
                # Zero is a fixed point of every update rule here, so
                # dead lanes stay put without special-casing the loop.
                a[newly] = ap[newly] = b[newly] = bp[newly] = 0.0

            if record_gauge:
                drift = np.abs(ap * a - apa0) / apa0_scale
                gauge_max = np.where(live & (drift > gauge_max),
                                     drift, gauge_max)

    # The plan records after its last substep, so this covers them all.
    j0 = 0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        apa0 = ap * a
        apa0_scale = np.where(np.abs(apa0) > 0, np.abs(apa0), 1.0)
        record(0)
        for sample_index, j1 in enumerate(
                np.flatnonzero(plan.record_after) + 1, start=1):
            numpy_advance(j0, int(j1))
            record(sample_index)
            j0 = int(j1)

    return {
        "sums": sums,
        "live_counts": live_counts,
        "blowup_times": blow_t,
        "gauge_max": gauge_max,
    }


# The native chunk engine of ``_kernel.c``: None until the first run in this
# process, then the kernel if it loaded and matched the numpy loop's bytes
# on the probe, else False (the numpy loop).
_native = None


def _load_native():
    """Load and probe the native kernel once per process; see ``_native``."""
    global _native
    if _native is None:
        from . import _kernel

        _native = False
        kernel = _kernel.load()
        try:
            if kernel is not None and _probe_matches(kernel):
                _native = kernel
            elif kernel is not None:
                _kernel.log.info("native kernel differs from numpy")
        except Exception as exc:  # say, a kernel that rejects the arrays
            _kernel.log.info("native kernel failed the probe: %s", exc,
                             exc_info=True)
        if not _native:
            _kernel.log.info("running the numpy substep loop")
    return _native


def _probe_matches(kernel) -> bool:
    """True if ``kernel`` gives the numpy loop's bytes on a small probe.

    Every method runs three times: with noise, gauge drift and a threshold
    low enough to kill some lanes at different substeps; noise-free; and
    noisy again from complex amplitudes on a chunk whose first lane is not
    in batch 0.  The coupling switches off the dt grid, and the tail step
    is shortened.
    """
    params = SystemParams(0.3, -0.7, 1.1, 0.9, CouplingSchedule(
        ((0.0123, 1.0), (math.inf, 0.6))))
    config = EnsembleConfig(n_trajectories=8, dt=1e-3, t_final=0.0305,
                            N_a0=4.0, N_b0=0.25, n_batches=3,
                            sample_interval=7, master_seed=2)
    init = CoherentInit.from_occupations(config.N_a0, config.N_b0)
    plan = build_step_plan(config, params)
    runs = ((np.arange(8), init, False, True, 2.4),
            (np.arange(8), init, True, False, 1e6),
            (np.arange(5, 13), CoherentInit(2 + 0.5j, 0.5 - 0.1j), False,
             True, 2.4))
    for name in METHOD_NAMES:
        method = MethodSpec.of(name)
        coeffs = _substep_coefficients(method, params, plan)
        for indices, start, noise_free, gauge, threshold in runs:
            fast, ref = (_chunk(native, indices, method, params, config,
                                start, plan, coeffs, noise_free, gauge,
                                threshold)
                         for native in (kernel, False))
            if any(fast[k].tobytes() != ref[k].tobytes() for k in ref):
                return False
    return True


def _chunk_job(method, params, config, init, plan, coeffs, noise_free,
               record_gauge, threshold, bound):
    """One chunk, trajectories ``bound[0]`` to ``bound[1] - 1``.

    A module-level function so that a worker process can unpickle it;
    ``_simulate_chunk`` is looked up by name at call time.
    """
    lo, hi = bound
    return _simulate_chunk(np.arange(lo, hi), method, params, config, init,
                           plan, coeffs, noise_free, record_gauge, threshold)


def _reduce(partials):
    """Merge chunk partials in the order given, as they arrive.

    The grouping is fixed by CHUNK_SIZE, never by scheduling, and the
    running sum starts from the first partial, so the bytes equal a sum
    over the stacked partials.
    """
    sums = live_counts = None
    blowup_times, gauge = [], []
    for p in partials:
        if sums is None:
            sums, live_counts = p["sums"], p["live_counts"]
        else:
            sums += p["sums"]
            live_counts += p["live_counts"]
        blowup_times.append(p["blowup_times"])
        gauge.append(p["gauge_max"])
    return sums, live_counts, np.concatenate(blowup_times), np.concatenate(gauge)


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------


def run_ensemble(method, params: SystemParams, config: EnsembleConfig, *,
                 n_workers: int | None = None, noise_free: bool = False,
                 record_gauge_drift: bool = False) -> EnsembleResult:
    """Integrate the full ensemble and return batch-structured moment sums.

    Trajectory i uses the stream keyed (master_seed, i) and belongs to
    batch i mod n_batches.  Trajectories run in chunks of ``CHUNK_SIZE``;
    with ``n_workers`` > 1 (default: up to 4, one per CPU and chunk) and
    more than one chunk, the chunks run in forked worker processes;
    forking is unsafe while other threads run, so a threaded caller
    passes ``n_workers=1``.  Chunk partials are reduced in chunk order,
    so the result is bit-identical for a given config regardless of
    ``n_workers``.
    ``noise_free`` zeroes all noise terms (debug aid);
    ``record_gauge_drift`` attaches the per-trajectory maximum relative
    drift of alpha_plus*alpha over the run.  An ``n_workers`` that is not
    None or a positive integer is a ConfigError.
    """
    method = MethodSpec.of(method)
    validate_config(config, method, params)
    # type(...) is int: a bool is an int, but not a count.
    if n_workers is not None and not (type(n_workers) is int and n_workers >= 1):
        raise ConfigError(["n_workers must be a positive integer"])
    _load_native()  # before any fork, so workers inherit it

    init = CoherentInit.from_occupations(config.N_a0, config.N_b0)
    plan = build_step_plan(config, params)
    coeffs = _substep_coefficients(method, params, plan)
    threshold = config.blowup_threshold * max(1.0, math.sqrt(config.N_a0))

    n = config.n_trajectories
    bounds = [(lo, min(lo + CHUNK_SIZE, n)) for lo in range(0, n, CHUNK_SIZE)]
    job = functools.partial(_chunk_job, method, params, config, init, plan,
                            coeffs, noise_free, record_gauge_drift, threshold)

    if n_workers is None:
        n_workers = min(4, os.cpu_count() or 1, len(bounds))
    if n_workers > 1 and len(bounds) > 1:
        # Imported here, not at the top: about 6 ms that every package
        # import would otherwise pay.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Forked workers inherit the imported modules and need no fresh
        # import; the engine starts no threads of its own before forking.
        with ProcessPoolExecutor(
                max_workers=min(n_workers, len(bounds)),
                mp_context=multiprocessing.get_context("fork")) as pool:
            sums, live_counts, blowup_times, gauge = _reduce(
                pool.map(job, bounds))
    else:
        sums, live_counts, blowup_times, gauge = _reduce(map(job, bounds))

    live_fraction = live_counts.sum(axis=1) / float(n)

    return EnsembleResult(
        times=plan.sample_times,
        sums=sums,
        live_counts=live_counts,
        live_fraction=live_fraction,
        blowup_times=blowup_times,
        method=method,
        params=params,
        config=config,
        gauge_drift=gauge if record_gauge_drift else None,
    )


@dataclass
class TrajectoryRecord:
    """Sampled monomials of a single trajectory."""

    times: np.ndarray
    monomials: np.ndarray  # (n_samples, len(MONOMIALS)); NaN after blow-up
    live: np.ndarray
    blowup_time: float | None


def simulate_trajectory(init: CoherentInit, method, params: SystemParams,
                        config: EnsembleConfig, *, trajectory_index: int = 0,
                        noise_free: bool = False) -> TrajectoryRecord:
    """Integrate one trajectory identified by its ensemble index.

    Runs the same engine as ``run_ensemble`` on a singleton chunk, so the
    sampled monomials agree bit-for-bit with that trajectory's ensemble
    contribution.  A non-finite ``init`` amplitude or a ``trajectory_index``
    that is not an int in [0, 2**64) is a ConfigError.
    """
    method = MethodSpec.of(method)
    validate_config(config, method, params)
    if not (type(trajectory_index) is int and 0 <= trajectory_index < 2 ** 64):
        raise ConfigError(["trajectory_index must be a 64-bit unsigned integer"])
    if not (cmath.isfinite(init.gamma_a) and cmath.isfinite(init.gamma_b)):
        raise ConfigError(["init amplitudes must be finite"])
    _load_native()
    plan = build_step_plan(config, params)
    coeffs = _substep_coefficients(method, params, plan)
    threshold = config.blowup_threshold * max(1.0, math.sqrt(config.N_a0))
    part = _simulate_chunk(
        np.array([trajectory_index]), method, params, config, init, plan,
        coeffs, noise_free, False, threshold)

    batch = trajectory_index % config.n_batches
    counts = part["live_counts"][:, batch]
    vals = part["sums"][:, batch, :]
    vals = np.where(counts[:, None] > 0, vals, np.nan + 0j)
    blow = part["blowup_times"][0]
    return TrajectoryRecord(
        times=plan.sample_times,
        monomials=vals,
        live=counts > 0,
        blowup_time=None if math.isnan(blow) else float(blow),
    )
