"""BLAS thread cap from ``TVCOX_NUM_THREADS``, applied before numpy loads.

OpenBLAS, MKL and OpenMP read ``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS``
and ``OMP_NUM_THREADS`` once, when numpy loads them.  The package imports
this module before anything that imports numpy, so when numpy is not yet
loaded the cap is set here (without overriding a variable the user set).
Once numpy is loaded only threadpoolctl can change the thread count.
"""

import os
import sys

_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def thread_limit(value: str):
    """The thread count ``value`` names, or None when it is not a positive integer."""
    try:
        limit = int(value)
    except ValueError:
        return None
    return limit if limit > 0 else None


def _cap_before_numpy():
    value = os.environ.get("TVCOX_NUM_THREADS")
    if not value or "numpy" in sys.modules:
        return None
    limit = thread_limit(value)
    if limit is None:
        return None  # the CLI reports it as a usage error
    for var in _BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(limit))
    return limit


# the limit written to the BLAS variables at import, None if none was
LIMIT_SET_AT_IMPORT = _cap_before_numpy()
