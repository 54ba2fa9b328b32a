"""A fixed reference computation that measures how fast the machine runs right now.

The benchmark was tuned on a 2-vCPU KVM guest whose speed moves by up to 40%
between periods of a few minutes, as other guests load the host's cores. That
drift moves every wall time a run takes, so runs made minutes apart disagreed
by more than any useful bound. The runner times `kernel_seconds` between its
operations and scales its wall times by ``REFERENCE_S / median(kernel times)``:
a run in a slow period and one in a fast period then report alike.

The kernel uses no code of the package, so a change to the package moves the
scaled times in full. It mixes the two kinds of work the workloads do: numpy
sorts and prefix sums on small arrays (as in tree growing) and dict and set
building over string ids (as in building release views).
"""

from __future__ import annotations

import time

import numpy as np

# kernel seconds in a quiet period on the machine the bounds were set on, so
# that scaled times read close to wall times there
REFERENCE_S = 0.175
_REPS = 600


def kernel_seconds() -> float:
    rng = np.random.default_rng(0)
    X = rng.random((400, 8))
    y = (rng.random(400) < 0.2).astype(np.float64)
    ids = [f"f{i:04d}" for i in range(400)]
    total = 0.0
    start = time.perf_counter()
    for _ in range(_REPS):
        for j in range(X.shape[1]):
            order = np.argsort(X[:, j], kind="stable")
            total += np.cumsum(y[order])[-1]
        position = {a: i for i, a in enumerate(ids)}
        half = set(ids[::2])
        total += sum(position[a] for a in ids if a in half)
    elapsed = time.perf_counter() - start
    if total <= 0:  # keeps the loop's results live
        raise RuntimeError("reference kernel produced no result")
    return elapsed
