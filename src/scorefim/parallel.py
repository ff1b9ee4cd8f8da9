"""Order-preserving fan-out of independent tasks over worker processes.

Callers give each task its own random stream (``rng.substream``) and
results come back in payload order, so a fan-out gives the same results,
bitwise, for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def pmap(fn, payloads, threads: int):
    """[fn(p) for p in payloads], on ``threads`` processes when above 1.

    A task that raises re-raises here, for the first failing payload in order.
    """
    if threads <= 1:
        return [fn(p) for p in payloads]
    chunk = max(1, len(payloads) // (8 * threads))
    with ProcessPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, payloads, chunksize=chunk))
