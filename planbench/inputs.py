"""Seeded request streams for the planning benchmark.

The shape domain is written out here rather than taken from the program's
routine catalog, so that the inputs do not move when the program does.  It
follows the paper's sampling domain: every dimension lies between
``MIN_DIM`` and a per-routine ``max_dim`` on a square-root scale, and the
operands of one call fit in ``MEMORY_CAP_BYTES``.  ``max_dim`` is the edge
of the largest square problem that fits the cap, stretched by ``SKEW`` so
that slim shapes are covered too.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

#: The twelve BLAS Level 3 keys the bundle installs and the streams request.
ROUTINES = (
    "sgemm", "dgemm", "ssymm", "dsymm", "ssyrk", "dsyrk",
    "ssyr2k", "dsyr2k", "strmm", "dtrmm", "strsm", "dtrsm",
)
MEMORY_CAP_BYTES = 500e6
MIN_DIM = 32
SKEW = 2.5

#: Dimension names and operand shapes per routine family.
FAMILIES = {
    "gemm": (("m", "k", "n"), (("m", "k"), ("k", "n"), ("m", "n"))),
    "symm": (("m", "n"), (("m", "m"), ("m", "n"), ("m", "n"))),
    "syrk": (("n", "k"), (("n", "k"), ("n", "n"))),
    "syr2k": (("n", "k"), (("n", "k"), ("n", "k"), ("n", "n"))),
    "trmm": (("m", "n"), (("m", "m"), ("m", "n"))),
    "trsm": (("m", "n"), (("m", "m"), ("m", "n"))),
}

Request = Tuple[str, Dict[str, int]]
#: Seed of the shapes in :class:`SkewedPool`, fixed across runs.
POOL_SEED = 0


def dim_names(routine: str) -> Tuple[str, ...]:
    return FAMILIES[routine[1:]][0]


def _max_dim(routine: str) -> int:
    itemsize = 4 if routine[0] == "s" else 8
    operands = FAMILIES[routine[1:]][1]
    return int(math.sqrt(MEMORY_CAP_BYTES / itemsize / len(operands)) * SKEW)


def sample_shapes(rng: np.random.Generator, routine: str, count: int) -> np.ndarray:
    """``count`` admissible shapes of ``routine`` as a ``(count, n_dims)`` array."""
    names, operands = FAMILIES[routine[1:]]
    itemsize = 4 if routine[0] == "s" else 8
    lo, hi = math.sqrt(MIN_DIM), math.sqrt(_max_dim(routine))
    kept: List[np.ndarray] = []
    have = 0
    while have < count:
        u = rng.random((2 * (count - have) + 8, len(names)))
        dims = np.rint((lo + u * (hi - lo)) ** 2).astype(np.int64)
        column = {name: dims[:, i] for i, name in enumerate(names)}
        words = sum(column[a] * column[b] for a, b in operands)
        dims = dims[words * itemsize <= MEMORY_CAP_BYTES]
        kept.append(dims)
        have += len(dims)
    return np.concatenate(kept)[:count]


class FreshStream:
    """Requests whose shapes never repeat within one stream.

    The routine of each request is uniform over :data:`ROUTINES`; a shape
    drawn twice is drawn again, so every request misses every cache the
    program keeps.  Seen shapes are kept as plain ints, which the garbage
    collector does not track, so the set adds no collection pauses to the
    timed calls however large it grows.
    """

    def __init__(self, seed: int, salt: int):
        self.rng = np.random.default_rng([seed, salt])
        self.seen: set = set()

    @staticmethod
    def key(routine: str, dims: Dict[str, int]) -> int:
        value = ROUTINES.index(routine)
        for name in dim_names(routine):
            value = (value << 16) | dims[name]
        return value

    def take(self, count: int) -> List[Request]:
        picks = self.rng.integers(len(ROUTINES), size=count)
        out: List[Request] = []
        for index in range(len(ROUTINES)):
            need = int(np.count_nonzero(picks == index))
            if not need:
                continue
            routine = ROUTINES[index]
            names = dim_names(routine)
            shapes: List[Request] = []
            while len(shapes) < need:
                for row in sample_shapes(self.rng, routine, need - len(shapes)):
                    dims = dict(zip(names, (int(v) for v in row)))
                    key = self.key(routine, dims)
                    if key not in self.seen:
                        self.seen.add(key)
                        shapes.append((routine, dims))
            out.extend(shapes)
        # Interleave routines in a seeded order rather than grouped by routine.
        order = self.rng.permutation(count)
        return [out[i] for i in order]


class SkewedPool:
    """A fixed pool of shapes requested with 1/rank popularity.

    This is the program's own ``skewed`` mix (``generate_workload`` in
    ``repro.serving.workload``): a pool of ``4 * pool_size`` requests, each
    with a routine drawn uniformly from :data:`ROUTINES`, where the ``r``-th
    request of the pool (1-based) is requested with probability
    proportional to ``1 / r``.  The routine of the hottest requests is the
    hot routine.  Only the shapes differ from the program's generator: they
    come from the paper's domain (:func:`sample_shapes`), not from uniform
    dimensions in 64-1024.

    The pool is the same in every run (drawn with :data:`POOL_SEED`); the
    run's seed drives the order in which its requests are drawn.  With
    1/rank popularity the hottest few shapes carry half the plans, so a
    pool drawn from the run's seed would make ``speedup_gmean`` a property
    of which shapes came out hot (its spread over twenty seeds was 9%).
    """

    def __init__(self, seed: int, pool_size: int):
        rng = np.random.default_rng([POOL_SEED, 2])
        seen: set = set()
        picks = rng.integers(len(ROUTINES), size=4 * pool_size)
        self.requests: List[Request] = []
        for index in picks.tolist():
            routine = ROUTINES[index]
            while True:
                dims = dict(zip(dim_names(routine), (int(v) for v in sample_shapes(rng, routine, 1)[0])))
                key = FreshStream.key(routine, dims)
                if key not in seen:
                    seen.add(key)
                    break
            self.requests.append((routine, dims))
        weights = 1.0 / np.arange(1, len(self.requests) + 1, dtype=float)
        self.p = weights / weights.sum()
        self.rng = np.random.default_rng([seed, 3])

    def take(self, count: int) -> np.ndarray:
        """Pool indices of the next ``count`` requests."""
        return self.rng.choice(len(self.requests), size=count, p=self.p)
