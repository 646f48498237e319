"""Print the OpenBLAS kernel that numpy's bundled OpenBLAS runs on this CPU,
such as ``SkylakeX``, ``Haswell`` or ``Sandybridge``.

OpenBLAS picks its kernels from the CPU when it loads, and
``OPENBLAS_CORETYPE`` in the environment overrides the pick.  Each kernel
orders its GEMM sums its own way, so the digests that
``test_cli.TestPinnedDigests`` pins depend on it, and that test reads it
here.  The name comes from ``scipy_openblas_get_corename64_`` in the
``libscipy_openblas64_*.so`` that numpy's wheel bundles in ``numpy.libs``.
pytest does not collect this file; run it from the repository root as

    python tests/blas_kernel.py
"""

import ctypes
import glob
import os

import numpy


def corename() -> str:
    """The name of the OpenBLAS kernel that this process runs."""
    (lib,) = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                    "numpy.libs", "libscipy_openblas64_*.so"))
    get = ctypes.CDLL(lib).scipy_openblas_get_corename64_
    get.restype = ctypes.c_char_p
    return get().decode()


if __name__ == "__main__":
    print(corename())
