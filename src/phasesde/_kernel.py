"""Build and load the native chunk engine in ``_kernel.c``.

The C file is compiled at first use with ``gcc -O2 -ffp-contract=off``
(plus ``-mfma`` where the CPU has FMA, as numpy's own loops use it) into
the user cache directory, under a name made from the sha256 of the
source and the flags, and loaded with ``ctypes``.  Objects of other
sources and flags stay, so checkouts that share the cache do not rebuild
each other's; a build keeps the ``CACHE_KEEP`` most recently used.
``load`` returns None when there is no compiler, the build fails, or the
cache directory is not private to this user; the engine then keeps its
numpy loop.  Whether the loaded kernel gives numpy's bytes is checked by
the engine, not here.
"""
from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .core import METHOD_NAMES, MONOMIALS

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = "gcc"
CACHE_DIR = Path(os.path.expanduser("~/.cache/phasesde"))  # relative: no home
CACHE_KEEP = 8  # objects kept in the cache, by last use; one is about 37 KB

# dtype and shape of each array chunk_t points at, in chunk_t's order; m
# lanes, n substeps, s samples (so s - 1 segment ends), nb batches.
_LAYOUT = {
    "sums": (np.complex128, ("s", "nb", len(MONOMIALS))),
    "live_counts": (np.int64, ("s", "nb")),
    **dict.fromkeys(("blow_t", "gauge_max"), (np.float64, ("m",))),
    **dict.fromkeys(("sub_dt", "sub_g", "sub_t_end"), (np.float64, ("n",))),
    "ends": (np.int64, ("s-1",)),
    "q": (np.complex128, ("n",)),
    "F": (np.complex128, ("n", 2, 2)),
}

_dbl = ctypes.c_double


class Chunk(ctypes.Structure):
    """The ``chunk_t`` of _kernel.c: one chunk's inputs and outputs."""

    _fields_ = [
        ("method", ctypes.c_int32), ("noisy", ctypes.c_int32),
        ("record_gauge", ctypes.c_int32), ("r_a", ctypes.c_int32),
        ("r_b", ctypes.c_int32), ("cexp_port", ctypes.c_int32),
        ("m", ctypes.c_int64),
        ("n_batches", ctypes.c_int64), ("n_samples", ctypes.c_int64),
        ("master_seed", ctypes.c_uint64), ("first", ctypes.c_uint64),
        ("gamma_a", _dbl), ("gamma_b", _dbl),
        *((name, ctypes.c_void_p) for name in _LAYOUT),
        ("s", _dbl * 2),
        ("omega_a", _dbl), ("omega_b", _dbl), ("c2a", _dbl), ("c2b", _dbl),
        ("threshold", _dbl),
    ]


def _flags() -> list:
    flags = ["-O2", "-ffp-contract=off", "-fPIC", "-shared"]
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    if any(line.startswith("flags") and "fma" in line.split()
           for line in cpuinfo.splitlines()):
        flags.append("-mfma")
    return flags


def _private_dir(path: Path) -> bool:
    """Create ``path`` (mode 0700) and check that only this user writes it."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    st = path.stat()
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def build() -> Path | None:
    """The cached shared object, compiled first if it is not there yet."""
    flags = _flags()
    try:
        key = hashlib.sha256(SOURCE.read_bytes()
                             + "\0".join(flags).encode()).hexdigest()
        target = CACHE_DIR / f"kernel-{key[:32]}.so"
        if not CACHE_DIR.is_absolute() or not _private_dir(CACHE_DIR):
            log.info("cache directory %s is not a private absolute path",
                     CACHE_DIR)
            return None
        if target.exists():
            # Marks the object used, for the pruning below.
            with contextlib.suppress(OSError):
                os.utime(target)
            return target
        compiler = shutil.which(COMPILER)
        if compiler is None:
            log.info("no %s on PATH", COMPILER)
            return None
        fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, suffix=".so.tmp")
        os.close(fd)
        try:
            proc = subprocess.run(
                [compiler, *flags, "-o", tmp, str(SOURCE), "-lm"],
                capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                log.info("%s failed: %s", COMPILER, proc.stderr.strip())
                return None
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        # The least recently used objects go; a process that has one
        # mapped keeps it.  Temporary files belong to concurrent builds.
        others = [p for p in CACHE_DIR.glob("kernel-*.so") if p != target]
        with contextlib.suppress(OSError):  # say, a concurrent prune
            others.sort(key=lambda p: p.stat().st_mtime, reverse=True)
            for stale in others[CACHE_KEEP - 1:]:
                stale.unlink()
    except (OSError, subprocess.SubprocessError) as exc:
        log.info("building the native kernel failed: %s", exc)
        return None
    return target


class Kernel:
    """The loaded shared object.  ``lib`` is its ``CDLL``, which exports
    ``phasesde_chunk``, which runs a chunk; ``phasesde_ndtri``, the
    inverse normal CDF that the chunk draws its normals with;
    ``phasesde_cexp``, the chunk's complex exp over an array, with its
    port of libm's ``cexp`` allowed or not; and
    ``phasesde_cexp_check``, which compares that port with libm.

    ``cexp_port`` is the check's verdict, taken once here: where it is
    False (a libm that rounds otherwise), every chunk calls libm ``cexp``.
    """

    def __init__(self, path: Path):
        self.lib = ctypes.CDLL(str(path))
        self._chunk = self.lib.phasesde_chunk
        self._chunk.argtypes = [ctypes.POINTER(Chunk)]
        self._chunk.restype = ctypes.c_int
        self.cexp_port = bool(self.lib.phasesde_cexp_check())
        if not self.cexp_port:
            log.info("the kernel's cexp differs from libm's; it calls libm")

    def run_chunk(self, method, noisy, record_gauge, config, first, plan,
                  coeffs, params, partials):
        """Run the chunk of trajectories ``first``, ``first + 1``, ...

        ``method`` is a MethodSpec; ``config`` an EnsembleConfig, which
        gives the streams' master seed, the coherent start and the lane
        threshold.  Lane k belongs to batch ``(first + k) % n_batches``.
        In ``partials``, ``sums`` and ``live_counts`` are added to, and
        ``blowup_times`` and ``gauge_max`` updated, in place; each must be
        a contiguous array of its engine dtype.  The kernel sums each
        sample's lanes per batch from +0.0, a tile of samples at a time,
        and adds each total to the value its cell holds on entry, as the
        numpy loop's ``sums[s] += reduce`` does.
        """
        sums, blow_t = partials["sums"], partials["blowup_times"]
        m = len(blow_t)
        if sums.ndim != 3 or sums.shape[1] < 1:
            raise ValueError("sums must have shape (samples, batches, "
                             "monomials) with at least one batch")
        nb = sums.shape[1]
        if not 0 <= first <= 2 ** 64 - max(m, 1):
            raise OverflowError(f"trajectory indices from {first} for {m} "
                                "lanes are not all uint64")
        s = complex(coeffs.get("s", 0j))
        gamma_a, gamma_b = config.coherent_start
        c = Chunk(method=METHOD_NAMES.index(method.method), noisy=noisy,
                  record_gauge=record_gauge, r_a=method.r_a, r_b=method.r_b,
                  cexp_port=self.cexp_port,
                  m=m, n_batches=nb,
                  n_samples=plan.n_samples, master_seed=config.master_seed,
                  first=first, gamma_a=gamma_a, gamma_b=gamma_b,
                  s=(s.real, s.imag),
                  omega_a=params.omega_a, omega_b=params.omega_b,
                  c2a=2.0 * params.chi_a, c2b=2.0 * params.chi_b,
                  threshold=config.lane_threshold)
        arrays = dict(sums=sums, live_counts=partials["live_counts"],
                      blow_t=blow_t, gauge_max=partials["gauge_max"],
                      ends=plan.ends)
        for name in ("sub_dt", "sub_g", "sub_t_end"):
            arrays[name] = np.ascontiguousarray(getattr(plan, name),
                                                dtype=float)
        for name in ("q", "F"):
            if name in coeffs:
                arrays[name] = np.ascontiguousarray(coeffs[name],
                                                    dtype=complex)
        factor = {"positive_p": "F", "wigner": None}.get(method.method, "q")
        if noisy and factor not in arrays:
            raise ValueError(f"a noisy {method.method} chunk needs {factor}")
        # The kernel reads sub_dt up to the last end.
        if (np.diff(plan.ends, prepend=0) < 0).any() or (
                plan.ends.size and plan.ends[-1] != plan.n_substeps):
            raise ValueError("ends must rise from 0 to the substep count")
        sizes = {"m": m, "n": plan.n_substeps, "s": plan.n_samples,
                 "s-1": plan.n_samples - 1, "nb": nb}
        for name, v in arrays.items():
            dtype, shape = _LAYOUT[name]
            shape = tuple(sizes.get(d, d) for d in shape)
            if (v.dtype != dtype or v.shape != shape
                    or not v.flags.c_contiguous):
                raise ValueError(f"{name} must be a contiguous "
                                 f"{np.dtype(dtype)} array of shape {shape}")
            setattr(c, name, v.ctypes.data)
        if self._chunk(ctypes.byref(c)) < 0:
            raise MemoryError("no memory for the lanes of a native chunk")


def load() -> Kernel | None:
    """The native kernel, or None (logged at INFO) where it cannot load."""
    path = build()
    if path is None:
        return None
    try:
        return Kernel(path)
    except (OSError, AttributeError) as exc:
        log.info("loading the native kernel failed: %s", exc)
        return None
