"""Seeded randomness helpers.

Every randomized operation in this package takes an explicit 64-bit seed and
builds its generators with ``numpy.random.default_rng``.  Work split across
batches derives one child seed per batch with ``spawn_seeds``; the children
are deterministic functions of the parent seed and the batch count, so a
split run is reproducible regardless of scheduling.
"""

from __future__ import annotations

import numpy as np


def spawn_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(int(seed)).spawn(int(n))
