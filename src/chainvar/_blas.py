"""Process-wide OpenBLAS thread count, through the libraries' own C entry points.

The replication harness takes its parallelism from worker processes, so
it runs BLAS on one thread: idle OpenBLAS threads spin on the cores the
workers need.  Single-column lag products run on one thread everywhere,
because a threaded dot product splits its sum, which changes the last
digits of the result.  Only libraries already loaded into this process
are touched; where none is found, nothing happens.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from pathlib import Path

# (setter, getter) names: numpy's 64-bit-integer build, scipy's build, plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _loaded_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[-1].strip() for line in fh if "openblas" in line}
    except OSError:
        return []
    return sorted(path for path in paths if "openblas" in Path(path).name)


@functools.cache
def _controls() -> tuple:
    """(set, get) thread-count functions, one pair per loaded library.

    Found once per process: importing chainvar loads numpy's and scipy's
    BLAS, the only ones it calls.
    """
    controls = []
    for path in _loaded_paths():
        lib = ctypes.CDLL(path)  # already loaded, so this only returns its handle
        names = next((pair for pair in _SYMBOLS if all(hasattr(lib, n) for n in pair)), None)
        if names is not None:
            setter, getter = getattr(lib, names[0]), getattr(lib, names[1])
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            controls.append((setter, getter))
    return tuple(controls)


def pin_single_thread() -> None:
    """Set every loaded OpenBLAS to one thread for the rest of the process."""
    for setter, _ in _controls():
        setter(1)


# The thread count is process-wide, so managers share one nesting count:
# the outermost saves the counts and the last one to leave restores them.
_lock = threading.Lock()
_depth = 0
_saved: list[int] = []


@contextlib.contextmanager
def single_threaded_blas():
    """Run the body with every loaded OpenBLAS on one thread; restore the counts after."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [getter() for _, getter in _controls()]
            for setter, _ in _controls():
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (setter, _), count in zip(_controls(), _saved):
                    setter(count)
