"""Process-wide OpenBLAS thread count, through the libraries' own C entry points.

The replication harness takes its parallelism from worker processes, so
it runs BLAS on one thread: idle OpenBLAS threads spin on the cores the
workers need.  Single-column lag products run on one thread everywhere,
because a threaded dot product splits its sum, which changes the last
digits of the result.  The libraries touched are the ones mapped into
this process when it first asks for them: numpy maps its own at import,
and no chainvar module maps another.  Where none is found, nothing
happens.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
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


@functools.cache
def _controls() -> tuple:
    """(set, get) thread-count functions, one pair per OpenBLAS mapped at the first call.

    The scan of ``/proc/self/maps`` (about 1 ms) runs once per process.
    numpy maps its own OpenBLAS at import, and no chainvar module maps
    another, so every library chainvar computes with is found.  A library
    that a caller maps later (scipy's, say) keeps its own thread count.
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


def describe() -> list[dict]:
    """The configuration and kernel core name of each OpenBLAS mapped now.

    A DYNAMIC_ARCH build picks its kernels for the CPU it runs on (or for
    ``OPENBLAS_CORETYPE``), and kernels for different cores round
    differently, so these name what the last digits of a product depend
    on.  The configuration string holds the version and the build options.
    """
    builds = []
    for path in _loaded_paths():
        lib = ctypes.CDLL(path)
        for setter, _ in _SYMBOLS:
            getters = [getattr(lib, setter.replace("set_num_threads", f"get_{what}"), None)
                       for what in ("config", "corename")]
            if all(getters):
                for getter in getters:
                    getter.argtypes, getter.restype = [], ctypes.c_char_p
                config, core = (getter().decode() for getter in getters)
                builds.append({"config": " ".join(config.split()), "corename": core})
                break
    return builds


def pin_single_thread() -> None:
    """Set every OpenBLAS found to one thread for the rest of the process."""
    for setter, _ in _controls():
        setter(1)


# The thread count is process-wide, so managers share one nesting count:
# the outermost pins every library found and saves each one's count, and
# the last one to leave restores exactly those.
_lock = threading.Lock()
_depth = 0
_saved: list[tuple] = []


@contextlib.contextmanager
def single_threaded_blas():
    """Run the body with every OpenBLAS found on one thread; restore the counts after."""
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
