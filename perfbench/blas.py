"""Thread count of every OpenBLAS loaded in this process, read and set via ctypes.

``threadpoolctl`` is not available, so the exported ``*_num_threads``
functions of each loaded library are called directly.
"""

from __future__ import annotations

import ctypes
import os

_STEMS = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
          "openblas_{}_num_threads64_", "openblas_{}_num_threads")


def _libraries() -> dict[str, tuple]:
    """``{library file name: (get, set)}`` for each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for stem in _STEMS:
            get, put = (getattr(lib, stem.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.restype = ctypes.c_int
                put.argtypes = [ctypes.c_int]
                found[os.path.basename(path)] = (get, put)
                break
    return found


def threads() -> dict[str, int]:
    return {name: get() for name, (get, _) in _libraries().items()}


def set_threads(counts: int | dict[str, int]) -> None:
    """Set one count for every library, or a count per library name."""
    for name, (_, put) in _libraries().items():
        put(counts if isinstance(counts, int) else counts[name])
