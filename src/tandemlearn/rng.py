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
_SHIFTS = tuple(np.uint64(k) for k in (30, 27, 31, 11))


def _mix64(z):
    """splitmix64 finalizer of a uint64 scalar or array; an array is mixed
    in place and returned."""
    s30, s27, s31, _ = _SHIFTS
    z ^= z >> s30
    z *= _MIX1
    z ^= z >> s27
    z *= _MIX2
    z ^= z >> s31
    return z


def uniform(seed, stream, step, kind):
    """Uniform draw in [0, 1) keyed by (seed, stream, step, kind).

    ``stream`` and ``step`` may be scalars or integer ndarrays that
    broadcast against each other (streams of shape (R,) with agents of
    shape (C, 1) give a (C, R) block); ``seed`` is a scalar.  ``kind`` is
    a scalar or a tuple of kinds, which share the seed, stream and step
    stages and stack along a new leading axis.  Returns a float when
    stream, step and kind are all scalars, else a float64 array.  Each
    element equals the scalar draw of its key.
    """
    kinds = np.asarray(kind, dtype=np.uint64)
    with np.errstate(over="ignore"):  # scalar keys wrap with a warning
        h = _mix64(np.uint64(seed) + _GOLDEN)
        h = _mix64(h ^ (np.asarray(stream, dtype=np.uint64) * _GOLDEN + np.uint64(1)))
        h = _mix64(h ^ (np.asarray(step, dtype=np.uint64) * _MIX1 + np.uint64(3)))
        kinds = kinds.reshape(kinds.shape + (1,) * np.ndim(h))
        h = _mix64(h ^ (kinds * _MIX2 + np.uint64(5)))
    h >>= _SHIFTS[3]
    out = h.astype(np.float64)
    out *= _INV_2_53
    if out.ndim == 0:
        return float(out)
    return out
