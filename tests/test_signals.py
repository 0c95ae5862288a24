import json
import math

import pytest

from tandemlearn import (
    DiscreteGeneralModel,
    ModelError,
    SignalModel,
    blr_bounds,
    likelihood_ratio,
    quantize,
)
from tandemlearn.cli import EXIT_MODEL_ERROR, main
from tandemlearn.signals import THETA_PRIOR, model_from_dict


def test_prior_is_uniform():
    assert THETA_PRIOR == 0.5


def test_canonical_orientation_swaps():
    m = SignalModel(0.7, 0.3)
    assert (m.p0, m.p1) == (0.3, 0.7)


def test_rejects_equal_channels():
    with pytest.raises(ModelError):
        SignalModel(0.5, 0.5)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
def test_rejects_out_of_range(bad):
    with pytest.raises(ModelError):
        SignalModel(bad, 0.5)


def test_complements_and_averages(m37):
    assert m37.q0 == pytest.approx(0.7)
    assert m37.q1 == pytest.approx(0.3)
    # average informativeness of the favorable signal under each state
    assert m37.pbar == pytest.approx(0.5)
    assert m37.qbar == pytest.approx(0.5)


def test_signal_probs_normalize(m46):
    for theta in (0, 1):
        probs = m46.signal_probs(theta)
        assert probs[0] + probs[1] == pytest.approx(1.0)
    assert m46.signal_probs(1)[1] == pytest.approx(0.6)
    assert m46.signal_probs(0)[1] == pytest.approx(0.4)


@pytest.mark.parametrize("theta", [2, -1, 0.5, None])
def test_state_of_the_world_outside_0_1_is_refused(theta, m46):
    for method in (m46.p, m46.q, m46.signal_probs):
        with pytest.raises(ValueError):
            method(theta)


def test_likelihood_ratio_binary(m46):
    # dF0/dF1 evaluated at each signal value
    assert likelihood_ratio(m46, 1) == pytest.approx(0.4 / 0.6)
    assert likelihood_ratio(m46, 0) == pytest.approx(0.6 / 0.4)


def test_blr_bounds_binary(m37):
    lo, hi = blr_bounds(m37)
    assert lo == pytest.approx(3 / 7)
    assert hi == pytest.approx(7 / 3)
    assert 0 < lo < 1 < hi


@pytest.mark.parametrize("p0, p1", [(0.3, 0.7), (0.4, 0.6), (0.1, 0.8)])
def test_binary_channel_is_the_two_point_law(p0, p1):
    """A ``SignalModel`` is the law over (0, 1) that a ``DiscreteGeneralModel``
    gives, and every function of the law reads the same from both."""
    binary = SignalModel(p0, p1)
    general = DiscreteGeneralModel((0, 1), (1 - p0, p0), (1 - p1, p1))
    assert (binary.f0, binary.f1) == (binary.signal_probs(0), binary.signal_probs(1))
    assert (binary.support, binary.f0, binary.f1) == (general.support, general.f0, general.f1)
    for s in (0, 1):
        assert likelihood_ratio(binary, s) == likelihood_ratio(general, s)
    assert blr_bounds(binary) == blr_bounds(general)
    assert quantize(general) == quantize(binary) == binary


def test_general_model_quantizes_to_binary_channel():
    g = DiscreteGeneralModel(support=("a", "b", "c"), f0=(0.5, 0.3, 0.2), f1=(0.2, 0.3, 0.5))
    lo, hi = blr_bounds(g)
    assert lo == pytest.approx(0.4)
    assert hi == pytest.approx(2.5)
    q = quantize(g)
    # the quantized 1-signal is the event {f1 > f0}; ties go to the 0 side
    assert q.p0 == pytest.approx(0.2)
    assert q.p1 == pytest.approx(0.5)


def test_general_model_rejects_non_distribution():
    with pytest.raises(ModelError):
        DiscreteGeneralModel(support=(0, 1), f0=(0.5, 0.4), f1=(0.5, 0.5))


def test_general_model_rejects_identical_distributions():
    with pytest.raises(ModelError):
        DiscreteGeneralModel(support=(0, 1), f0=(0.4, 0.6), f1=(0.4, 0.6))


def test_general_model_rejects_revealing_signal():
    # a support point with zero mass under exactly one state breaks the
    # bounded-likelihood-ratio requirement
    with pytest.raises(ModelError):
        DiscreteGeneralModel(support=(0, 1, 2), f0=(0.5, 0.5, 0.0), f1=(0.3, 0.3, 0.4))


def test_blr_bounds_skip_support_points_of_no_mass():
    """A point of zero mass under both laws is allowed and has no ratio."""
    model = DiscreteGeneralModel(support=(0, 1, 2), f0=(0.5, 0.5, 0.0), f1=(0.3, 0.7, 0.0))
    assert quantize(model) == SignalModel(0.5, 0.7)
    assert blr_bounds(model) == pytest.approx((5 / 7, 5 / 3), rel=1e-15)
    with pytest.raises(ModelError, match="zero mass"):
        likelihood_ratio(model, 2)


# A degenerate quantization: f1 passes the sum check 5e-13 above 1.
_DEGENERATE = {"support": [0, 1], "f0": [1.0, 0.0], "f1": [1.0 + 5e-13, 0.0]}
_ZERO_POINT = DiscreteGeneralModel(support=(0, 1, 2), f0=(0.5, 0.5, 0.0), f1=(0.3, 0.7, 0.0))


@pytest.mark.parametrize("call, spec", [
    (model_from_dict, {"support": [0, 1], "f0": [0.5, 0.5], "f1": [1.0]}),
    (model_from_dict, {"support": [0, 0], "f0": [0.5, 0.5], "f1": [0.3, 0.7]}),
    (model_from_dict, {"support": [0, 1], "f0": [-0.5, 1.5], "f1": [0.3, 0.7]}),
    (lambda spec: likelihood_ratio(_ZERO_POINT, 5), None),
    (lambda spec: likelihood_ratio(SignalModel(0.3, 0.7), 2), None),
    (lambda spec: likelihood_ratio(_ZERO_POINT, 2), None),
    (lambda spec: quantize(model_from_dict(spec)), _DEGENERATE),
    (model_from_dict, {"support": [0, 1]}),
], ids=["lengths", "distinct-support", "negative-mass", "not-in-support", "binary-not-in-support",
        "zero-mass", "degenerate-quantization", "no-model-keys"])
def test_model_checks_raise_model_error(call, spec, tmp_path, capsys):
    """Each check of the module raises ``ModelError``; a ``--model`` file
    that reaches it exits 2 with the library's reason."""
    with pytest.raises(ModelError) as info:
        call(spec)
    if spec is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        argv = ["exact", "--model", str(path), "--profile", "copy", "--n", "3"]
        assert main(argv) == EXIT_MODEL_ERROR
        assert json.loads(capsys.readouterr().out)["reason"] == str(info.value)


def test_model_from_dict_binary_and_general():
    m = model_from_dict({"p0": 0.3, "p1": 0.7})
    assert isinstance(m, SignalModel)
    g = model_from_dict(
        {"support": [0, 1, 2], "f0": [0.5, 0.3, 0.2], "f1": [0.2, 0.3, 0.5]}
    )
    assert isinstance(g, DiscreteGeneralModel)
    assert math.isclose(blr_bounds(g)[1], 2.5)
