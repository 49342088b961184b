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
import sys
import threading
from pathlib import Path

# (setter, getter) names: numpy's 64-bit-integer build, scipy's build, the
# 64-bit-integer build of numpy 1.x wheels, plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
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


@functools.lru_cache(maxsize=1)
def _scan(module_count: int) -> tuple:
    """(set, get) thread-count functions, one pair per loaded library.

    A library is mapped when a module that links it is imported: numpy
    maps its own at import.  No chainvar module imports scipy, but a
    caller may have, and scipy maps its own OpenBLAS with the first
    module that links it.  So the scan of ``/proc/self/maps`` (about
    1 ms) is reused while the number of imported modules, its only
    argument, stays the same.
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


def _controls() -> tuple:
    """The (set, get) pairs of every OpenBLAS that the modules imported so far loaded."""
    return _scan(len(sys.modules))


def pin_single_thread() -> None:
    """Set every OpenBLAS loaded now to one thread for the rest of the process."""
    for setter, _ in _controls():
        setter(1)


# The thread count is process-wide, so managers share one nesting count:
# the outermost pins every library loaded when it enters and saves each
# one's count, and the last one to leave restores exactly those.  A library
# first loaded inside the block keeps its own count.
_lock = threading.Lock()
_depth = 0
_saved: list[tuple] = []


@contextlib.contextmanager
def single_threaded_blas():
    """Run the body with every loaded OpenBLAS on one thread; restore the counts after."""
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [(setter, getter()) for setter, getter in _controls()]
            for setter, _ in _saved:
                setter(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for setter, count in _saved:
                    setter(count)
