"""Signal models, likelihood ratios, and quantization to binary signals.

Two model classes are supported: a Bernoulli pair ``SignalModel`` (the
native input of the tandem decision profiles) and a finite-support
``DiscreteGeneralModel`` that can be reduced to a Bernoulli pair by
posterior quantization.  Both states of the world are a priori equally
likely (prior 1/2), a convention baked into every downstream formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: P(theta = 1).  Fixed by the model; not configurable.
THETA_PRIOR = 0.5


class ModelError(ValueError):
    """Raised when a signal model violates its invariants."""


class ArgumentError(ValueError):
    """An argument outside the range its function accepts (CLI exit code 4)."""


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an integer (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _canonical_pair(p0: float, p1: float) -> tuple[float, float]:
    if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0):
        raise ModelError(f"signal probabilities must lie in (0, 1): p0={p0}, p1={p1}")
    if p0 == p1:
        raise ModelError("the two signal distributions must differ (p0 != p1)")
    # Canonical labeling: P(s=1) larger under theta=1.
    return (p0, p1) if p0 < p1 else (p1, p0)


@dataclass(frozen=True)
class SignalModel:
    """Bernoulli signal law pair with bounded likelihood ratios.

    ``p0`` and ``p1`` are the probabilities of observing signal 1 under
    state of the world 0 and 1 respectively.  Stored canonically with
    ``p0 < p1`` (labels are swapped on construction if needed), so the
    likelihood ratio dF0/dF1 satisfies 0 < m < 1 < M < inf with
    m = p0/p1 and M = q0/q1.  It is the two-point law ``f0``, ``f1`` over
    ``support`` (0, 1), the shape of a ``DiscreteGeneralModel``.
    """

    p0: float
    p1: float

    def __post_init__(self):
        p0, p1 = _canonical_pair(float(self.p0), float(self.p1))
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)

    @property
    def q0(self) -> float:
        return 1.0 - self.p0

    @property
    def q1(self) -> float:
        return 1.0 - self.p1

    @property
    def pbar(self) -> float:
        return 0.5 * (self.p0 + self.p1)

    @property
    def qbar(self) -> float:
        return 1.0 - self.pbar

    def p(self, theta: int) -> float:
        """P(s=1) under the given state of the world (0 or 1)."""
        if theta not in (0, 1):
            raise ArgumentError(f"state of the world must be 0 or 1, got {theta!r}")
        return self.p1 if theta == 1 else self.p0

    def q(self, theta: int) -> float:
        """P(s=0) under the given state of the world."""
        return 1.0 - self.p(theta)

    def signal_probs(self, theta: int) -> tuple[float, float]:
        """(P(s=0), P(s=1)) under the given state of the world."""
        p = self.p(theta)
        return (1.0 - p, p)

    @property
    def support(self) -> tuple[int, int]:
        return (0, 1)

    @property
    def f0(self) -> tuple[float, float]:
        return self.signal_probs(0)

    @property
    def f1(self) -> tuple[float, float]:
        return self.signal_probs(1)


@dataclass(frozen=True)
class DiscreteGeneralModel:
    """Finite-support signal model given by two probability vectors.

    ``f0`` and ``f1`` are the signal distributions under each state of
    the world.  They must be mutually absolutely continuous (positive on
    exactly the same support points) and not identical.
    """

    support: tuple
    f0: tuple = field()
    f1: tuple = field()

    def __post_init__(self):
        support = tuple(self.support)
        f0 = tuple(float(x) for x in self.f0)
        f1 = tuple(float(x) for x in self.f1)
        if not (len(support) == len(f0) == len(f1)):
            raise ModelError("support, f0, f1 must have equal lengths")
        if len(set(support)) != len(support):
            raise ModelError("support points must be distinct")
        for name, f in (("f0", f0), ("f1", f1)):
            if any(x < 0.0 for x in f):
                raise ModelError(f"{name} has negative mass")
            if abs(sum(f) - 1.0) > 1e-12:
                raise ModelError(f"{name} does not sum to 1")
        for a, b in zip(f0, f1):
            if (a > 0.0) != (b > 0.0):
                raise ModelError("f0 and f1 must be mutually absolutely continuous")
        if f0 == f1:
            raise ModelError("the two signal distributions must differ (f0 != f1)")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "f1", f1)


def likelihood_ratio(model, s) -> float:
    """dF0/dF1 evaluated at the signal value ``s``."""
    if s not in model.support:
        raise ModelError(f"signal value {s!r} not in support")
    i = model.support.index(s)
    f0, f1 = model.f0[i], model.f1[i]
    if f1 == 0.0:
        # A support point may carry no mass under either law, and then it has no ratio.
        raise ModelError(f"zero mass under f1 at support point {s!r}")
    return f0 / f1


def blr_bounds(model) -> tuple[float, float]:
    """(m, M): the likelihood ratio's range over the support points of positive mass."""
    # Mass under f1 iff under f0.
    ratios = [likelihood_ratio(model, s) for s, mass in zip(model.support, model.f1) if mass > 0.0]
    return (min(ratios), max(ratios))


def quantize(model: DiscreteGeneralModel) -> SignalModel:
    """Reduce a general finite-support model to a Bernoulli pair.

    The quantizer maps a signal to 1 exactly when it favors state 1,
    i.e. when f1[s] > f0[s] (equal priors); ties map to 0.  The induced
    Bernoulli parameters are p0' = sum of f0 over that set and p1' the
    corresponding sum of f1.  A ``SignalModel`` is its own quantization.
    """
    if isinstance(model, SignalModel):
        return model
    ones = [i for i in range(len(model.support)) if model.f1[i] > model.f0[i]]
    p0 = sum(model.f0[i] for i in ones)
    p1 = sum(model.f1[i] for i in ones)
    if not (0.0 < p0 < 1.0 and 0.0 < p1 < 1.0):
        raise ModelError(
            f"quantization produced a degenerate Bernoulli pair ({p0}, {p1})"
        )
    return SignalModel(p0=p0, p1=p1)


def model_from_dict(obj: dict):
    """Build a model from config-file keys (p0/p1 or support/f0/f1)."""
    if "p0" in obj and "p1" in obj:
        return SignalModel(p0=obj["p0"], p1=obj["p1"])
    if {"support", "f0", "f1"} <= obj.keys():
        return DiscreteGeneralModel(
            support=tuple(obj["support"]), f0=tuple(obj["f0"]), f1=tuple(obj["f1"])
        )
    raise ModelError("model spec needs either p0/p1 or support/f0/f1")
