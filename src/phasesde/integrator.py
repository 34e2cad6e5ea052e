"""Ensemble integration with counter-based seeding and blow-up handling.

Each trajectory owns a Philox stream keyed by (master_seed, trajectory
index) and consumes it in a fixed documented order: first the initial
sampling draws (mode a, then mode b), then four noise draws per substep.
Normals always come from the inverse CDF of the stream's uniforms, so the
consumption count never depends on platform or on the values drawn.
Trajectories are processed in fixed-size chunks.  With more than one
worker the chunks run on threads of this process (a native chunk is one
call that releases the GIL), and their partials are merged in chunk order
as they arrive, which makes results bit-identical for a given config no
matter how many workers run the chunks.

Every method takes the same split step: a multiplicative noise kick
x (1 + m sqrt(dt)) at the pre-step point, with each variable's noise
multiplier m from ``dynamics.NOISE`` (hybrid_truncated's a pair takes
exp(m_a sqrt(dt)) and its inverse), then the exact rotation exp(-i F dt),
which divides the plus variables by the same factor and so conserves
alpha_plus*alpha and beta_plus*beta to machine precision.

A chunk, trajectories ``first`` to ``first + m - 1``, works out its own
noise coefficients, blow-up threshold and coherent start, and records
sample s after substep ``StepPlan.ends[s - 1] - 1``.  A run's chunks
all run start to end on one of two engines that give the same bytes:
the native kernel of ``_kernel.c``, which does a chunk's stream set-up,
initial sampling, substeps and records in one call and is used once it
has loaded and matched the numpy loop on a small probe, or the numpy
loop, which is the reference and the fallback.
"""
from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, replace

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
    draw_standard_normals,
    sample_positive_p_coherent,
    sample_wigner_coherent,
)

__all__ = [
    "StepPlan",
    "build_step_plan",
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

    ``sub_t_end`` is one sorted array: the grid k*dt of nominal steps, each
    coupling breakpoint more than 1e-9*dt inside a nominal step, which
    splits it, and ``t_final`` where a tail step runs past the grid.
    ``sub_dt`` is the gap from the previous end (from 0).  Splits do not
    advance the sampling cadence: samples are recorded after nominal step
    k whenever k is a multiple of sample_interval, plus the final time.
    Sample s >= 1 is recorded after substep ``ends[s - 1] - 1``, so the
    last end is ``n_substeps``.
    """

    sub_dt: np.ndarray
    sub_g: np.ndarray
    sub_t_end: np.ndarray
    ends: np.ndarray
    sample_times: np.ndarray

    @property
    def n_substeps(self) -> int:
        return len(self.sub_dt)

    @property
    def n_samples(self) -> int:
        return len(self.sample_times)


def build_step_plan(config: EnsembleConfig, params: SystemParams) -> StepPlan:
    """The StepPlan of a run, built by numpy on one sorted array,
    ``points``, of 0 and every substep end."""
    dt, t_final = config.dt, config.t_final
    tol = 1e-9 * dt
    n = int(math.floor(t_final / dt + 1e-9))
    has_tail = t_final - n * dt > tol
    grid = np.arange(n + 1) * dt
    # A breakpoint splits step k, which ends at grid[k + 1] or, for the
    # tail step n, at t_final, if it lies more than tol inside it.
    breaks = np.array(params.coupling.breakpoints(), dtype=float)
    breaks = breaks[(tol < breaks) & (breaks < t_final - tol)]
    k = np.searchsorted(grid, breaks, side="right") - 1
    stop = np.append(grid[1:], t_final)[k]
    inside = ((k < n + has_tail) & (grid[k] + tol < breaks)
              & (breaks < stop - tol))
    points = np.sort(np.concatenate(
        (grid, breaks[inside], [t_final] * has_tail)))
    lo, hi = points[:-1], points[1:]
    # Each substep takes the g of the segment holding its midpoint.
    t_end, g = np.array(params.coupling.segments, dtype=float).T
    sub_g = g[np.searchsorted(t_end, 0.5 * (lo + hi), side="right")]
    marks = np.arange(config.sample_interval, n + 1, config.sample_interval)
    if n % config.sample_interval and not has_tail:
        marks = np.append(marks, n)
    ends = np.searchsorted(points, grid[marks]).astype(np.int64)
    if has_tail:
        ends = np.append(ends, len(lo))
    return StepPlan(sub_dt=hi - lo, sub_g=sub_g, sub_t_end=hi, ends=ends,
                    sample_times=points[np.append(0, ends)])


# --------------------------------------------------------------------------
# chunk engine
# --------------------------------------------------------------------------


def _initial_arrays(first: int, m: int, method: MethodSpec,
                    config: EnsembleConfig):
    """Initial phase-space arrays of trajectories ``first`` to
    ``first + m - 1``, plus their streams.

    Consumption order within each stream: mode a draws first, then mode b;
    delta-sampled modes consume nothing.
    """
    gamma_a, gamma_b = config.coherent_start
    a, ap, b, bp = np.empty((4, m), dtype=complex)
    gens = [make_stream(config.master_seed, first + k) for k in range(m)]
    if method.r_a == 2:
        a[:], ap[:] = sample_wigner_coherent(gamma_a, gens)
    else:
        a[:], ap[:] = sample_positive_p_coherent(gamma_a)
    if method.r_b == 2:
        b[:], bp[:] = sample_wigner_coherent(gamma_b, gens)
    else:
        b[:], bp[:] = sample_positive_p_coherent(gamma_b)
    return a, ap, b, bp, gens


def _simulate_chunk(first: int, m: int, method: MethodSpec,
                    params: SystemParams, config: EnsembleConfig,
                    plan: StepPlan, record_gauge: bool = False, *, native):
    """Integrate trajectories ``first`` to ``first + m - 1``; returns the
    chunk's partials.

    The noise coefficients are worked out from the arguments; both engines
    start from ``config.coherent_start`` and read ``config.lane_threshold``.
    ``native`` is a loaded kernel, or False for the numpy loop.
    """
    coeffs = dynamics.noise_coefficients(method.method, params, plan.sub_g)
    n_batches = config.n_batches

    sums = np.zeros((plan.n_samples, n_batches, len(MONOMIALS)), dtype=complex)
    live_counts = np.zeros((plan.n_samples, n_batches), dtype=np.int64)
    blow_t = np.full(m, np.nan)
    gauge_max = np.zeros(m)
    partials = {"sums": sums, "live_counts": live_counts,
                "blowup_times": blow_t, "gauge_max": gauge_max}
    if native:
        # Streams, initial sampling, substeps and records in one call.
        native.run_chunk(method, record_gauge, config, first, plan, coeffs,
                         params, partials)
        return partials

    a, ap, b, bp, gens = _initial_arrays(first, m, method, config)
    live = np.ones(m, dtype=bool)
    # The live lanes, ascending.  a, ap, b, bp, apa0 and apa0_scale hold
    # their rows only, and xi_rows their rows of the noise block, so a dead
    # lane is neither stepped nor drawn for: its stream is never read
    # again, as in the kernel.
    idx = np.arange(m)
    noise = dynamics.NOISE.get(method.method)

    # Lane k belongs to batch (first + k) % n_batches.  It sits at row
    # off + k of a zeroed buffer of rows * n_batches rows; viewed as
    # (rows, n_batches, ...), each batch is one column, and a reduce over
    # the rows adds its lanes one after another in lane order.  Added into
    # a zero row with +=, this gives the bytes of a lane-by-lane
    # scatter-add, signed zeros included; a matrix product would let BLAS
    # reorder the sums.
    off = first % n_batches
    rows = -(-(off + m) // n_batches)
    buf = np.zeros((rows * n_batches, len(MONOMIALS)), dtype=complex)
    lane_live = np.zeros(rows * n_batches, dtype=np.int64)
    lanes = buf[off:off + m]

    def record(sample_index):
        apa = ap * a
        # Columns in MONOMIALS order.  A dead lane's row was zeroed when it
        # died and is not written again.
        for col, v in enumerate((a, ap, b, bp, apa, bp * b, apa * apa, b * b,
                                 bp * bp, apa * b, apa * bp)):
            lanes[idx, col] = v
        lane_live[off:off + m] = live
        sums[sample_index] += np.add.reduce(
            buf.reshape(rows, n_batches, -1), axis=0)
        live_counts[sample_index] += np.add.reduce(
            lane_live.reshape(rows, n_batches), axis=0)

    frequencies = dynamics.FREQUENCIES[method.method]
    # Truncated Wigner points stay conjugate-symmetric.
    conjugate = method.method == "wigner"
    # An exact exponential a pair keeps alpha_plus*alpha real under the
    # interface noise.
    exact_pair = method.method == "hybrid_truncated"
    xi, xi_rows = None, idx

    def numpy_advance(j0, j1):
        """Substeps j0..j1-1 of the live lanes; noise is drawn NOISE_BLOCK
        substeps at a time."""
        nonlocal a, ap, b, bp, idx, xi, xi_rows, apa0, apa0_scale
        for j in range(j0, j1):
            if noise is not None and j % NOISE_BLOCK == 0:
                block_len = min(NOISE_BLOCK, plan.n_substeps - j)
                xi = draw_standard_normals(
                    [gens[k] for k in idx], block_len * 4).reshape(
                        idx.size, block_len, 4)
                xi_rows = np.arange(idx.size)
            dt_s = plan.sub_dt[j]
            f_a, f_b = frequencies(a, ap, b, bp, params, plan.sub_g[j])
            if noise is not None:
                m_a, m_ap, m_b, m_bp = noise(coeffs, j,
                                             xi[xi_rows, j % NOISE_BLOCK])
                sdt = math.sqrt(dt_s)
                if exact_pair:
                    ee = np.exp(m_a * sdt)
                    a_mid, ap_mid = a * ee, ap / ee
                else:
                    a_mid = a * (1.0 + m_a * sdt)
                    ap_mid = ap * (1.0 + m_ap * sdt)
                b_mid = b * (1.0 + m_b * sdt)
                bp_mid = bp * (1.0 + m_bp * sdt)
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

            bad = np.zeros(idx.size, dtype=bool)
            for v in (a, ap, b, bp):
                bad |= ~np.isfinite(v) | (np.abs(v) > config.lane_threshold)
            if bad.any():
                dead, keep = idx[bad], ~bad
                blow_t[dead] = plan.sub_t_end[j]
                live[dead] = False
                lanes[dead] = 0.0
                idx, xi_rows, a, ap, b, bp, apa0, apa0_scale = (
                    v[keep] for v in (idx, xi_rows, a, ap, b, bp, apa0,
                                      apa0_scale))

            if record_gauge:
                drift = np.abs(ap * a - apa0) / apa0_scale
                peak = gauge_max[idx]
                np.copyto(peak, drift, where=drift > peak)
                gauge_max[idx] = peak

    # The plan records after its last substep, so this covers them all.
    j0 = 0
    with np.errstate(all="ignore"):
        apa0 = ap * a
        apa0_scale = np.where(np.abs(apa0) > 0, np.abs(apa0), 1.0)
        record(0)
        for sample_index, j1 in enumerate(plan.ends, start=1):
            numpy_advance(j0, int(j1))
            record(sample_index)
            j0 = int(j1)

    return partials


# The native chunk engine of ``_kernel.c``: None until the first run in this
# process, then the kernel if it loaded and matched the numpy loop's bytes
# on the probe, else False (the numpy loop).  Set once, under the lock.
_native = None
_native_lock = threading.Lock()


def _load_native():
    """Load and probe the native kernel once per process; see ``_native``.

    A thread that calls during the first load waits for its verdict.
    """
    global _native
    if _native is None:
        with _native_lock:
            if _native is None:
                _native = _probed_kernel()
    return _native


def _probed_kernel():
    """The loaded kernel if it passes the probe, else False (logged)."""
    from . import _kernel

    kernel = _kernel.load()
    try:
        if kernel is not None and _probe_matches(kernel):
            return kernel
        if kernel is not None:
            _kernel.log.info("native kernel differs from numpy")
    except Exception as exc:  # say, a kernel that rejects the arrays
        _kernel.log.info("native kernel failed the probe: %s", exc,
                         exc_info=True)
    _kernel.log.info("running the numpy substep loop")
    return False


def engine_record() -> dict:
    """The engine that runs chunks in this process: ``{"name": "numpy"}``,
    or ``{"name": "native", "cexp": "port", "normals": "avx512"}``
    (``"libm"`` where the kernel's cexp port failed its check at load,
    ``"scalar"`` where its build draws uniforms without AVX-512)."""
    kernel = _load_native()
    if not kernel:
        return {"name": "numpy"}
    return {"name": "native", "cexp": "port" if kernel.cexp_port else "libm",
            "normals": kernel.normals}


def _probe_matches(kernel) -> bool:
    """True if ``kernel`` gives the numpy loop's bytes on a small probe.

    Every method runs three times: with gauge drift and a threshold low
    enough to kill some lanes at different substeps; as a default run
    does, without gauge drift at the default threshold; and with gauge
    drift and lost lanes again at other occupations on a chunk whose first
    lane is not in batch 0.  The coupling switches off the dt grid, and
    the tail step is shortened.
    """
    params = SystemParams(0.3, -0.7, 1.1, 0.9, CouplingSchedule(
        ((0.0123, 1.0), (math.inf, 0.6))))
    plain = EnsembleConfig(n_trajectories=8, dt=1e-3, t_final=0.0305,
                           N_a0=4.0, N_b0=0.25, n_batches=3,
                           sample_interval=7, master_seed=2)
    # A threshold of 1.2 * sqrt(N_a0) = 2.4.
    lossy = replace(plain, blowup_threshold=1.2)
    plan = build_step_plan(plain, params)
    runs = ((0, lossy, True), (0, plain, False),
            (5, replace(lossy, N_a0=4.25, N_b0=0.26), True))
    for name in METHOD_NAMES:
        method = MethodSpec.of(name)
        for first, config, gauge in runs:
            fast, ref = (_simulate_chunk(first, 8, method, params, config,
                                         plan, gauge, native=eng)
                         for eng in (kernel, False))
            if any(fast[k].tobytes() != ref[k].tobytes() for k in ref):
                return False
    return True


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
                 n_workers: int | None = None,
                 record_gauge_drift: bool = False) -> EnsembleResult:
    """Integrate the full ensemble and return batch-structured moment sums.

    Trajectory i uses the stream keyed (master_seed, i) and belongs to
    batch i mod n_batches.  Trajectories run in chunks of ``CHUNK_SIZE``,
    all on the engine ``_load_native`` gives; with ``n_workers`` > 1 and
    more than one chunk, the chunks run on that many threads.  The
    default is up to 4, one per CPU and chunk, on the native kernel, and
    1 on the numpy loop, whose threads only contend for the GIL.  Chunk
    partials are reduced in chunk order, so the result is bit-identical
    for a given config regardless of ``n_workers``, and a caller on any
    thread may pass any ``n_workers``.
    ``record_gauge_drift`` attaches the per-trajectory maximum relative
    drift of alpha_plus*alpha over the run.  An ``n_workers`` that is not
    None or a positive integer is a ConfigError.
    """
    method = MethodSpec.of(method)
    validate_config(config, method, params)
    # type(...) is int: a bool is an int, but not a count.
    if n_workers is not None and not (type(n_workers) is int and n_workers >= 1):
        raise ConfigError(["n_workers must be a positive integer"])

    plan = build_step_plan(config, params)
    native = _load_native()

    n = config.n_trajectories
    bounds = [(lo, min(lo + CHUNK_SIZE, n)) for lo in range(0, n, CHUNK_SIZE)]

    def job(bound):
        lo, hi = bound
        return _simulate_chunk(lo, hi - lo, method, params, config, plan,
                               record_gauge_drift, native=native)

    if n_workers is None:
        n_workers = min(4, os.cpu_count() or 1, len(bounds)) if native else 1
    if n_workers > 1 and len(bounds) > 1:
        # Imported here, not at the top: about 5 ms that every package
        # import would otherwise pay.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(n_workers, len(bounds))) as pool:
            sums, live_counts, blowup_times, gauge = _reduce(
                pool.map(job, bounds))
    else:
        sums, live_counts, blowup_times, gauge = _reduce(map(job, bounds))

    return EnsembleResult(
        times=plan.sample_times,
        sums=sums,
        live_counts=live_counts,
        blowup_times=blowup_times,
        method=method,
        params=params,
        config=config,
        gauge_drift=gauge if record_gauge_drift else None,
    )

