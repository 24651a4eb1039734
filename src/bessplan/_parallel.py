"""The package's one way to run independent work in parallel."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor


def pmap(fn, items, threads: int) -> list:
    """[fn(x) for x in items], spread over up to `threads` threads.

    Results keep the order of items, and the exception of the first
    failing item in that order propagates. threads <= 1 runs serially
    on the calling thread. Threads overlap only work that releases the
    interpreter lock, such as SciPy's sparse factorizations, so only
    the sparse day solves of pipeline.validate_plan and
    oep.tou_dispatch fan out. Screening (vva.run_vva and
    stat.sensitivities) runs on the calling thread: its small banded
    solves hold the lock, and a second thread only adds contention.
    """
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
