"""The package's one thread scheme: :func:`concurrent_map`, its OpenBLAS pin and :func:`workers`."""

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_in_item = threading.local()  # ``busy`` on a thread while it runs concurrent_map items


@functools.cache
def _openblas():
    """``(get, set)`` of numpy's OpenBLAS thread count, looked up once, or None."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    for lib in map(ctypes.CDLL, paths):  # scipy's own OpenBLAS exports neither name
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("set")):
                get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def workers(n: int) -> int:
    """Threads :func:`concurrent_map` runs ``n`` items on, at least 1 (1 without a BLAS setter,
    and inside a running item: a nested call runs inline, on that item's thread)."""
    inline = getattr(_in_item, "busy", False) or not _openblas()
    return 1 if inline else max(1, min(n, len(os.sched_getaffinity(0))))


def concurrent_map(fn, items) -> list:
    """``list(map(fn, items))`` on the calling thread and ``workers(len(items)) - 1`` helpers,
    numpy's OpenBLAS at one thread until all are done (the README has the runs behind the pin)."""
    if (helpers := workers(len(items := list(items))) - 1) < 1:
        return list(map(fn, items))
    todo, out = iter(enumerate(items)), [None] * len(items)

    def work(_=None):
        for i, item in todo:
            out[i] = fn(item)

    get, put = _openblas()
    threads, _in_item.busy = get(), True  # the calling thread runs items too
    put(1)
    try:
        with ThreadPoolExecutor(helpers, initializer=setattr, initargs=(_in_item, "busy", True)) as pool:
            done = pool.map(work, range(helpers))
            work()
            list(done)  # a helper's exception is raised here
    finally:
        put(threads)
        _in_item.busy = False
    return out
