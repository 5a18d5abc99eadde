"""The thread count of the OpenBLAS that numpy loads.

numpy's wheels bundle scipy-openblas, which starts one thread per core.
The CLI runs its commands under ``one_thread()``: crbm's
worker thread takes the second core for the paper-scale steps, and
OpenBLAS's threads would compete with it.  At one thread the CLI's
outputs are also the same bytes whatever ``OPENBLAS_NUM_THREADS`` says
(on one BLAS build and CPU target; the bits are not promised across
them).  Library callers choose for themselves: importing the package
changes nothing.

The library is found by its path in /proc/self/maps, and its exported
getter and setter are called through ctypes.  Where either is missing,
on another BLAS or another OS, BLAS is left alone and the count reads
"unknown".
"""

import contextlib
import ctypes
import functools

import numpy  # noqa: F401  (its BLAS is loaded before the lookup)

_MAPS = "/proc/self/maps"
_LIBRARY = "openblas"
_GETTER = "scipy_openblas_get_num_threads64_"
_SETTER = "scipy_openblas_set_num_threads64_"


@functools.cache
def _openblas():
    """(getter, setter) of numpy's OpenBLAS thread count, or None."""
    try:
        with open(_MAPS) as fh:
            # a mapping's path, if it has one, is its sixth field
            paths = sorted({fields[5] for fields in
                            (line.rstrip("\n").split(maxsplit=5) for line in fh)
                            if len(fields) == 6 and _LIBRARY in fields[5]})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
            getter, setter = getattr(library, _GETTER), getattr(library, _SETTER)
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = (), ctypes.c_int
        setter.argtypes, setter.restype = (ctypes.c_int,), None
        return getter, setter
    return None


def thread_count():
    """numpy's OpenBLAS thread count now, or "unknown"."""
    found = _openblas()
    return "unknown" if found is None else found[0]()


@contextlib.contextmanager
def one_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore the
    count it had; where no known getter and setter are found, leave BLAS
    alone."""
    found = _openblas()
    if found is None:
        yield
        return
    getter, setter = found
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)
