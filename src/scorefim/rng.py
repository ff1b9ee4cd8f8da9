"""Counter-based splittable random streams.

Every stochastic unit of work (replicate, block, run) receives its own
Philox generator keyed by ``(master_seed, *path)``.  Streams are independent
of execution order, so parallel schedules cannot change results.
"""

from __future__ import annotations

import numpy as np


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by an integer path under a master seed."""
    seq = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(x) for x in path))
    return np.random.Generator(np.random.Philox(seq))
