"""Build and load the native substep loop in ``_kernel.c``.

The C file is compiled at first use with ``gcc -O2 -ffp-contract=off``
(plus ``-mfma`` where the CPU has FMA, as numpy's own loops use it) into
the user cache directory, under a name made from the sha256 of the
source and the flags, and loaded with ``ctypes``.  ``load`` returns None
when there is no compiler, the build fails, or the cache directory is
not private to this user; the engine then keeps its numpy loop.  Whether
the loaded kernel gives numpy's bytes is checked by the engine, not here.
"""
from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from .core import METHOD_NAMES

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
COMPILER = "gcc"
CACHE_DIR = Path(os.path.expanduser("~/.cache/phasesde"))  # relative: no home

_NDTRI_SIGNATURE = b"double (double, int __pyx_skip_dispatch)"

# dtype and shape of each array chunk_t points at; m lanes, n substeps.
_LAYOUT = {
    **dict.fromkeys(("a", "ap", "b", "bp", "apa0"), (np.complex128, ("m",))),
    "live": (np.bool_, ("m",)),
    **dict.fromkeys(("blow_t", "gauge_max", "apa0_scale"),
                    (np.float64, ("m",))),
    "gens": (np.uintp, ("m",)),
    **dict.fromkeys(("sub_dt", "sub_g", "sub_t_end"), (np.float64, ("n",))),
    "q": (np.complex128, ("n",)),
    "F": (np.complex128, ("n", 2, 2)),
}

_ptr = ctypes.c_void_p
_dbl = ctypes.c_double


class Chunk(ctypes.Structure):
    """The ``chunk_t`` of _kernel.c: one chunk's state and coefficients."""

    _fields_ = [
        ("method", ctypes.c_int32), ("noisy", ctypes.c_int32),
        ("record_gauge", ctypes.c_int32), ("m", ctypes.c_int32),
        ("a", _ptr), ("ap", _ptr), ("b", _ptr), ("bp", _ptr),
        ("live", _ptr), ("blow_t", _ptr), ("gauge_max", _ptr),
        ("apa0", _ptr), ("apa0_scale", _ptr), ("gens", _ptr), ("ndtri", _ptr),
        ("sub_dt", _ptr), ("sub_g", _ptr), ("sub_t_end", _ptr),
        ("q", _ptr), ("F", _ptr),
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
    except (OSError, subprocess.SubprocessError) as exc:
        log.info("building the native kernel failed: %s", exc)
        return None
    return target


class Kernel:
    """The loaded ``phasesde_advance`` plus scipy's ``ndtri``."""

    def __init__(self, path: Path):
        from scipy.special import cython_special

        capsule = cython_special.__pyx_capi__["ndtri"]
        if _capsule_name(capsule) != _NDTRI_SIGNATURE:
            raise OSError(
                f"scipy's ndtri has signature {_capsule_name(capsule)!r}")
        self._ndtri = _capsule_pointer(capsule, _NDTRI_SIGNATURE)
        self._advance = ctypes.CDLL(str(path)).phasesde_advance
        self._advance.argtypes = [ctypes.POINTER(Chunk), ctypes.c_int64,
                                  ctypes.c_int64]
        self._advance.restype = None

    def advancer(self, method, noisy, record_gauge, state, live, blow_t,
                 gauge_max, apa0, apa0_scale, gens, plan, coeffs, params,
                 threshold):
        """``advance(j0, j1)``: substeps j0..j1-1 of one chunk, in place.

        ``state`` is (a, ap, b, bp); it, ``live``, ``blow_t`` and
        ``gauge_max`` are updated in place and must be contiguous arrays
        of their engine dtypes.
        """
        s = complex(coeffs.get("s", 0j))
        cs = 1j * s
        c = Chunk(method=METHOD_NAMES.index(method), noisy=noisy,
                  record_gauge=record_gauge, m=len(live),
                  ndtri=self._ndtri, s=(s.real, s.imag), cs=(cs.real, cs.imag),
                  omega_a=params.omega_a, omega_b=params.omega_b,
                  c2a=2.0 * params.chi_a, c2b=2.0 * params.chi_b,
                  threshold=threshold)
        arrays = dict(zip(("a", "ap", "b", "bp"), state), live=live,
                      blow_t=blow_t, gauge_max=gauge_max, apa0=apa0,
                      apa0_scale=apa0_scale)
        for name in ("sub_dt", "sub_g", "sub_t_end"):
            arrays[name] = np.ascontiguousarray(getattr(plan, name),
                                                dtype=float)
        for name in ("q", "F"):
            if name in coeffs:
                arrays[name] = np.ascontiguousarray(coeffs[name],
                                                    dtype=complex)
        if noisy:
            arrays["gens"] = np.array(
                [_capsule_pointer(g.bit_generator.capsule, b"BitGenerator")
                 for g in gens], dtype=np.uintp)
        m, n = len(live), plan.n_substeps
        for name, v in arrays.items():
            dtype, shape = _LAYOUT[name]
            shape = tuple(n if d == "n" else m if d == "m" else d
                          for d in shape)
            if v.dtype != dtype or v.shape != shape or not v.flags.c_contiguous:
                raise ValueError(f"{name} must be a contiguous "
                                 f"{np.dtype(dtype)} array of shape {shape}")
            setattr(c, name, v.ctypes.data)
        c.arrays = arrays  # alive as long as the struct points at them
        ref = ctypes.byref(c)

        def advance(j0, j1):
            if not 0 <= j0 <= j1 <= n:
                raise IndexError(f"substeps {j0}..{j1} outside 0..{n}")
            self._advance(ref, j0, j1)
        return advance


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
