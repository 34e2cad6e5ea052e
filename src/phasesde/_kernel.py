"""Build and load the native chunk engine in ``_kernel.c``.

The C file is compiled at first use with ``gcc -O2 -ffp-contract=off``
(plus ``-mfma`` where the CPU has FMA, as numpy's own loops use it) into
the user cache directory, under a name made from the sha256 of the
source and the flags, and loaded with ``ctypes``; a build removes the
objects of other sources and flags from the cache.  ``load`` returns None
when there is no compiler, the build fails, or the cache directory is
not private to this user; the engine then keeps its numpy loop.  Whether
the loaded kernel gives numpy's bytes is checked by the engine, not here.
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

_NDTRI_SIGNATURE = b"double (double, int __pyx_skip_dispatch)"

# dtype and shape of each array chunk_t points at; m lanes, n substeps,
# s samples (so s - 1 segment ends), nb batches.
_LAYOUT = {
    "sums": (np.complex128, ("s", "nb", len(MONOMIALS))),
    "live_counts": (np.int64, ("s", "nb")),
    **dict.fromkeys(("blow_t", "gauge_max"), (np.float64, ("m",))),
    **dict.fromkeys(("sub_dt", "sub_g", "sub_t_end"), (np.float64, ("n",))),
    "ends": (np.int64, ("s-1",)),
    "q": (np.complex128, ("n",)),
    "F": (np.complex128, ("n", 2, 2)),
}

_ptr = ctypes.c_void_p
_dbl = ctypes.c_double


class Chunk(ctypes.Structure):
    """The ``chunk_t`` of _kernel.c: one chunk's inputs and outputs."""

    _fields_ = [
        ("method", ctypes.c_int32), ("noisy", ctypes.c_int32),
        ("record_gauge", ctypes.c_int32), ("r_a", ctypes.c_int32),
        ("r_b", ctypes.c_int32), ("m", ctypes.c_int64),
        ("n_batches", ctypes.c_int64), ("off", ctypes.c_int64),
        ("n_samples", ctypes.c_int64),
        ("master_seed", ctypes.c_uint64), ("first", ctypes.c_uint64),
        ("gamma_a", _dbl * 2), ("gamma_b", _dbl * 2),
        ("sums", _ptr), ("live_counts", _ptr),
        ("blow_t", _ptr), ("gauge_max", _ptr), ("ndtri", _ptr),
        ("sub_dt", _ptr), ("sub_g", _ptr), ("sub_t_end", _ptr),
        ("ends", _ptr), ("q", _ptr), ("F", _ptr),
        ("s", _dbl * 2), ("cs", _dbl * 2),
        ("omega_a", _dbl), ("omega_b", _dbl), ("c2a", _dbl), ("c2b", _dbl),
        ("threshold", _dbl),
    ]


# Private prototypes, so the shared ``ctypes.pythonapi`` entries keep theirs.
_capsule_pointer = ctypes.PYFUNCTYPE(_ptr, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))


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
        # Objects of older sources or flags are never loaded again; a
        # process that has one mapped keeps it.  Temporary files belong to
        # concurrent builds.
        for stale in CACHE_DIR.glob("kernel-*.so"):
            if stale != target:
                with contextlib.suppress(OSError):
                    stale.unlink()
    except (OSError, subprocess.SubprocessError) as exc:
        log.info("building the native kernel failed: %s", exc)
        return None
    return target


class Kernel:
    """The loaded ``phasesde_chunk`` plus scipy's ``ndtri``."""

    def __init__(self, path: Path):
        from scipy.special import cython_special

        capsule = cython_special.__pyx_capi__["ndtri"]
        if _capsule_name(capsule) != _NDTRI_SIGNATURE:
            raise OSError(
                f"scipy's ndtri has signature {_capsule_name(capsule)!r}")
        self._ndtri = _capsule_pointer(capsule, _NDTRI_SIGNATURE)
        self._chunk = ctypes.CDLL(str(path)).phasesde_chunk
        self._chunk.argtypes = [ctypes.POINTER(Chunk)]
        self._chunk.restype = ctypes.c_int

    def run_chunk(self, method, noisy, record_gauge, init, master_seed, first,
                  plan, coeffs, params, threshold, sums, live_counts, blow_t,
                  gauge_max):
        """Run the chunk of trajectories ``first``, ``first + 1``, ...

        ``method`` is a MethodSpec and ``init`` a CoherentInit.  Lane k
        belongs to batch ``(first + k) % n_batches``.  The outputs
        ``sums`` and ``live_counts`` are added to, and ``blow_t`` and
        ``gauge_max`` updated, in place; each must be a contiguous
        array of its engine dtype.  Returns False if a recorded lane
        reached 2**200 or was not finite: the sums may then differ from
        the numpy loop's in their nan bits, and the chunk must run on it.
        """
        m = len(blow_t)
        if sums.ndim != 3 or sums.shape[1] < 1:
            raise ValueError("sums must have shape (samples, batches, "
                             "monomials) with at least one batch")
        nb = sums.shape[1]
        if not 0 <= first <= 2 ** 64 - max(m, 1):
            raise OverflowError(f"trajectory indices from {first} for {m} "
                                "lanes are not all uint64")
        s = complex(coeffs.get("s", 0j))
        cs = 1j * s
        gamma_a, gamma_b = complex(init.gamma_a), complex(init.gamma_b)
        c = Chunk(method=METHOD_NAMES.index(method.method), noisy=noisy,
                  record_gauge=record_gauge, r_a=method.r_a, r_b=method.r_b,
                  m=m, n_batches=nb, off=first % nb,
                  n_samples=plan.n_samples, master_seed=master_seed,
                  first=first, gamma_a=(gamma_a.real, gamma_a.imag),
                  gamma_b=(gamma_b.real, gamma_b.imag), ndtri=self._ndtri,
                  s=(s.real, s.imag), cs=(cs.real, cs.imag),
                  omega_a=params.omega_a, omega_b=params.omega_b,
                  c2a=2.0 * params.chi_a, c2b=2.0 * params.chi_b,
                  threshold=threshold)
        arrays = dict(sums=sums, live_counts=live_counts, blow_t=blow_t,
                      gauge_max=gauge_max,
                      ends=(np.flatnonzero(plan.record_after)
                            + 1).astype(np.int64))
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
        if len(plan.record_after) != plan.n_substeps:
            raise ValueError("record_after must flag every substep")
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
        status = self._chunk(ctypes.byref(c))
        if status < 0:
            raise MemoryError("no memory for the lanes of a native chunk")
        return status == 0


def load() -> Kernel | None:
    """The native kernel, or None (logged at INFO) where it cannot load."""
    path = build()
    if path is None:
        return None
    try:
        return Kernel(path)
    except (OSError, AttributeError, KeyError, ImportError) as exc:
        log.info("loading the native kernel failed: %s", exc)
        return None
