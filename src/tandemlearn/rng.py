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

The kind stage ends in ``bits``, the one definition of a draw: the
53-bit integer ``x = h >> 11`` of the final hash ``h``.  ``finish``
returns the float ``x * 2^-53``, exact for a 53-bit integer.  Since the
scaling by 2^-53 is exact too, ``x * 2^-53 < p`` holds exactly when
``x < bar(p)``, the integer ``ceil(p * 2^53)``; so the Monte Carlo walk
compares the integers with bars of its probabilities and makes no float.

``bits`` is the walk's inner call, so its array path keeps numpy calls
few and cheap: it mixes in place through one scratch buffer by explicit
ufunc calls with 0-d array constants and ``out=`` (which numpy dispatches
faster than numpy-scalar operands and in-place operators), takes the
kind salts from a cache, and runs without ``np.errstate``, since uint64
array arithmetic wraps silently (only numpy scalars warn, and scalar keys
take the guarded path).
"""

from __future__ import annotations

import functools

import numpy as np

# Draw kinds.  Fixed constants: adding kinds must not renumber these.
KIND_WORLD = 0  # the state-of-the-world draw, once per replication
KIND_SIGNAL = 1  # the private signal of agent n
KIND_RULE = 2  # the rule-randomization draw of agent n

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 1.0 / (1 << 53)
_TWO_53 = float(1 << 53)
_SHIFTS = tuple(np.uint64(k) for k in (30, 27, 31, 11))
# The array path's operands: 0-d arrays, not numpy scalars.
_S30, _S27, _S31, _S11, _M1, _M2 = (
    np.array(c, dtype=np.uint64) for c in (*_SHIFTS, _MIX1, _MIX2)
)


def _mix64(z, scratch=None):
    """splitmix64 finalizer of a uint64 scalar or array.  An array is mixed
    in place and returned; with a ``scratch`` array of its shape and dtype
    the shifts go there, so no temporaries are made."""
    if scratch is None:
        s30, s27, s31, _ = _SHIFTS
        z ^= z >> s30
        z *= _MIX1
        z ^= z >> s27
        z *= _MIX2
        z ^= z >> s31
        return z
    np.bitwise_xor(z, np.right_shift(z, _S30, out=scratch), out=z)
    np.multiply(z, _M1, out=z)
    np.bitwise_xor(z, np.right_shift(z, _S27, out=scratch), out=z)
    np.multiply(z, _M2, out=z)
    return np.bitwise_xor(z, np.right_shift(z, _S31, out=scratch), out=z)


@functools.cache
def _salts(kind, ndim: int):
    """The kind stage's input ``kind * _MIX2 + 5``, shaped to stack the
    kinds of a tuple along a new leading axis of an ``ndim``-dim block."""
    kinds = np.asarray(kind, dtype=np.uint64)
    kinds = kinds.reshape(kinds.shape + (1,) * ndim)
    with np.errstate(over="ignore"):  # a 0-d kind gives a scalar, which warns where it wraps
        salts = np.asarray(kinds * _MIX2 + np.uint64(5))
    salts.flags.writeable = False  # shared by every call
    return salts


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


def bits(key, step, kind):
    """The 53-bit integer draws ``h >> 11`` of ``stream_key`` values and
    ``step_key`` values that broadcast against each other: the step mix,
    then the kind mix.  ``kind`` is a scalar or a tuple of kinds, which
    share the earlier stages and stack along a new leading axis.  Returns
    a numpy uint64 scalar when key, step and kind are all scalars, else a
    uint64 array."""
    h = np.bitwise_xor(key, step)
    if h.ndim == 0:  # scalar arithmetic warns where it wraps
        with np.errstate(over="ignore"):
            return _mix64(_mix64(h) ^ _salts(kind, 0)) >> _SHIFTS[3]
    h = _mix64(h, np.empty_like(h)) ^ _salts(kind, h.ndim)
    return np.right_shift(_mix64(h, np.empty_like(h)), _S11, out=h)


def bar(p):
    """The integer bar ``ceil(p * 2^53)`` of probabilities ``p`` in [0, 1],
    as uint64: a draw ``x`` of ``bits`` reads ``x < bar(p)`` exactly when
    its float ``x * 2^-53`` reads ``< p``."""
    return np.ceil(np.multiply(p, _TWO_53)).astype(np.uint64)


def finish(key, step, kind):
    """Uniform draws in [0, 1): the draws of ``bits`` times 2^-53.  Returns
    a float when key, step and kind are all scalars, else a float64
    array."""
    out = np.multiply(bits(key, step, kind), _INV_2_53)
    return float(out) if out.ndim == 0 else out


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
