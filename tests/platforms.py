"""The platform a digest test runs on, for its failure message.

A digest pins float64 bytes, and OpenBLAS picks its kernels by CPU at
load time, so a machine with another core can round a matmul apart and
fail a digest that the code did not move. The message of a failed digest
assertion names the core and the vector extensions the digests were
recorded on and those of the run.
"""

import ctypes
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

FEATURES = ("AVX2", "FMA3", "AVX512F")
RECORDED = "OpenBLAS core SkylakeX (AVX2 yes, FMA3 yes, AVX512F yes)"


def openblas_core() -> str:
    """The core OpenBLAS chose for this CPU, read from numpy's bundled
    library; 'unknown' where numpy links another BLAS."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def running() -> str:
    flags = ", ".join(f"{name} {'yes' if __cpu_features__.get(name) else 'no'}"
                      for name in FEATURES)
    return f"OpenBLAS core {openblas_core()} ({flags})"


def mismatch(what) -> str:
    """The message of a failed digest assertion about ``what``."""
    return f"{what}: recorded on {RECORDED}; this run is on {running()}"
