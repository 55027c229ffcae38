"""Per-rank BLAS thread budget for the in-process threaded world.

Every rank thread of a :class:`~repro.distributed.threaded.ThreadedWorld`
calls into the same OpenBLAS, and OpenBLAS sizes its own thread pool to the
whole machine.  ``world_size`` ranks therefore run ``world_size × cores``
BLAS threads on ``cores`` cores.  :func:`blas_thread_budget` caps the
bundled OpenBLAS libraries for the duration of a world:

* numpy's ``libscipy_openblas64_*`` (``scipy_openblas_{get,set}_num_threads64_``);
* scipy's ``libscipy_openblas-*`` (``scipy_openblas_{get,set}_num_threads``),
  which runs ``eigh``.

The setting is process-global (OpenBLAS 0.3.31's ``*_set_num_threads_local``
is not thread-local either), so overlapping budgets share one depth count:
the first to enter records the original counts, each entry may only lower
them, and the last to exit restores them.  A count is never raised above
what the process already had, so ``OPENBLAS_NUM_THREADS=1`` stays 1.  With no
OpenBLAS found (an MKL or Accelerate build) the budget does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import os
import threading
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["OpenBLASLibrary", "blas_thread_budget", "blas_threads", "openblas_libraries", "usable_cores"]

# (getter, setter) symbol pairs, in the order they are tried for each library:
# numpy >= 2 / scipy wheels prefix OpenBLAS's symbols with ``scipy_``; numpy 1.x
# wheels ship ``libopenblas64_`` with the plain ILP64 names.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


class OpenBLASLibrary(NamedTuple):
    """One loaded OpenBLAS and its thread-count entry points."""

    name: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


def _bundled_library_paths() -> List[Path]:
    """The OpenBLAS shared objects shipped inside the numpy and scipy wheels."""
    paths: List[Path] = []
    for package in ("numpy", "scipy"):
        try:
            module = importlib.import_module(package)
        except ImportError:
            continue
        libs = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
        paths.extend(sorted(libs.glob("lib*openblas*.so*")))
    return paths


def _bind(path: Path) -> Optional[OpenBLASLibrary]:
    try:
        handle = ctypes.CDLL(str(path))
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        getter = getattr(handle, get_name, None)
        setter = getattr(handle, set_name, None)
        if getter is None or setter is None:
            continue
        getter.restype = ctypes.c_int
        getter.argtypes = []
        setter.restype = None
        setter.argtypes = [ctypes.c_int]
        return OpenBLASLibrary(path.name, getter, setter)
    return None


@functools.lru_cache(maxsize=None)
def openblas_libraries() -> Tuple[OpenBLASLibrary, ...]:
    """Every bundled OpenBLAS this process can size (empty on non-OpenBLAS builds)."""
    found = (_bind(path) for path in _bundled_library_paths())
    return tuple(library for library in found if library is not None)


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blas_threads() -> Dict[str, int]:
    """The effective thread count of each bundled OpenBLAS, keyed by file name."""
    return {library.name: library.get_num_threads() for library in openblas_libraries()}


# OpenBLAS's thread count is process state, so the budget's bookkeeping is too.
_lock = threading.Lock()
_depth = 0
_original: List[Tuple[OpenBLASLibrary, int]] = []


@contextlib.contextmanager
def blas_thread_budget(threads: int) -> Iterator[None]:
    """Cap every bundled OpenBLAS at ``max(1, min(current, threads))`` inside the block.

    Restores the counts the process had before the outermost budget when the
    last overlapping budget exits, also when the block raises.
    """
    global _depth
    libraries = openblas_libraries()
    with _lock:
        if _depth == 0:
            _original[:] = [(library, library.get_num_threads()) for library in libraries]
        _depth += 1
        for library in libraries:
            current = library.get_num_threads()
            budget = max(1, min(current, threads))
            if budget != current:
                library.set_num_threads(budget)
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for library, count in _original:
                    if library.get_num_threads() != count:
                        library.set_num_threads(count)
                _original.clear()
