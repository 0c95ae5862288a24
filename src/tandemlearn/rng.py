"""Counter-based random number generation.

Every random draw in the Monte Carlo engine is a pure function of
(master seed, stream id, agent index, draw kind).  This gives bitwise
reproducibility regardless of execution order: replications can be run
one at a time or vectorized across streams, and inserting a new draw
kind never perturbs existing ones.

The mixer is the splitmix64 finalizer applied in a small sponge over the
four key components.  It is not cryptographic, but the finalizer has full
avalanche, which is what matters for structured (seed, stream, step, kind)
keys.
"""

from __future__ import annotations

import numpy as np

# Draw kinds.  Fixed constants: adding kinds must not renumber these.
KIND_WORLD = 0  # the state-of-the-world draw, once per replication
KIND_SIGNAL = 1  # the private signal of agent n
KIND_RULE = 2  # the rule-randomization draw of agent n

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)


def _mix64(z):
    """splitmix64 finalizer of a uint64 scalar or array; an array is mixed
    in place and returned."""
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def uniform(seed, stream, step, kind):
    """Uniform draw in [0, 1) keyed by (seed, stream, step, kind).

    ``stream`` and ``step`` may be scalars or integer ndarrays that
    broadcast against each other (streams of shape (R,) with agents of
    shape (C, 1) give a (C, R) block); ``seed`` and ``kind`` are scalars.
    Returns a float when both are scalars, else a float64 array of the
    broadcast shape.  Each element equals the scalar draw of its key.
    """
    with np.errstate(over="ignore"):  # scalar keys wrap with a warning
        h = _mix64(np.uint64(seed) + _GOLDEN)
        h = _mix64(h ^ (np.asarray(stream, dtype=np.uint64) * _GOLDEN + np.uint64(1)))
        h = _mix64(h ^ (np.asarray(step, dtype=np.uint64) * _MIX1 + np.uint64(3)))
        h ^= np.uint64(kind) * _MIX2 + np.uint64(5)
        h = _mix64(h)
    h >>= np.uint64(11)
    out = h.astype(np.float64)
    out *= _INV_2_53
    if np.isscalar(stream) and np.isscalar(step):
        return float(out)
    return out
