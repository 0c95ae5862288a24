"""Counter-based random number generation.

Every random draw in the Monte Carlo engine is a pure function of
(master seed, stream id, agent index, draw kind).  This gives bitwise
reproducibility regardless of execution order: replications can be run
one at a time or vectorized across streams, and inserting a new draw
kind never perturbs existing ones.

The mixer is the splitmix64 finalizer applied in a small sponge over the
four key components.  It is not cryptographic, but the finalizer has full
avalanche, which is what matters for structured (seed, stream, step, kind)
keys.  ``uniform`` is the composition of three steps: ``stream_key`` (the
seed and stream stages), ``step_key`` and ``finish`` (the step and kind
stages), so a loop that draws for the same streams at many steps hashes
each stream once.
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


def stream_key(seed, stream):
    """The seed and stream stages of the hash, which depend on neither step
    nor kind: a uint64 per stream (``stream`` a scalar or an integer
    ndarray), computed once and finished by ``finish`` for any step."""
    with np.errstate(over="ignore"):  # scalar keys wrap with a warning
        h = _mix64(np.uint64(seed) + _GOLDEN)
        return _mix64(h ^ (np.asarray(stream, dtype=np.uint64) * _GOLDEN + np.uint64(1)))


def step_key(step):
    """The step's input to the hash: a uint64 per step (scalar or ndarray).
    Array arithmetic wraps without the warning of scalar arithmetic."""
    return np.asarray(step, dtype=np.uint64) * _MIX1 + np.uint64(3)


def finish(key, step, kind):
    """Uniform draws in [0, 1) from ``stream_key`` values and ``step_key``
    values that broadcast against each other: the step mix, then the kind
    mix.  ``kind`` is a scalar or a tuple of kinds, which share the earlier
    stages and stack along a new leading axis.  Returns a float when key,
    step and kind are all scalars, else a float64 array."""
    kinds = np.asarray(kind, dtype=np.uint64)
    with np.errstate(over="ignore"):
        h = _mix64(key ^ step)
        kinds = kinds.reshape(kinds.shape + (1,) * np.ndim(h))
        h = _mix64(h ^ (kinds * _MIX2 + np.uint64(5)))
    h >>= _SHIFTS[3]
    out = h.astype(np.float64)
    out *= _INV_2_53
    if out.ndim == 0:
        return float(out)
    return out


def uniform(seed, stream, step, kind):
    """Uniform draw in [0, 1) keyed by (seed, stream, step, kind).

    ``stream`` and ``step`` may be scalars or integer ndarrays that
    broadcast against each other (streams of shape (R,) with agents of
    shape (C, 1) give a (C, R) block); ``seed`` is a scalar.  ``kind`` is
    a scalar or a tuple of kinds, stacked along a new leading axis.
    Returns a float when stream, step and kind are all scalars, else a
    float64 array.  Each element equals the scalar draw of its key.
    """
    return finish(stream_key(seed, stream), step_key(step), kind)
