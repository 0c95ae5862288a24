"""The library's one argument error: every argument check raises
``ArgumentError``, and an agent index is read as an integer, never
truncated from a float."""

import re
from pathlib import Path

import numpy as np
import pytest

import tandemlearn
from tandemlearn import (
    ArgumentError,
    SimConfig,
    baseline_profile,
    brute_force_oracle,
    designed_profile,
    designed_trajectory,
    error_trajectory,
    myopic_profile,
    posterior_sequence,
    segment_table,
    series_diagnostics,
)
from tandemlearn.chain import sweep


@pytest.mark.parametrize("call", [
    lambda m: myopic_profile(m, 1, 1.5),
    lambda m: myopic_profile(m, 1.0, 5),
    lambda m: baseline_profile("copy", 2.0),
    lambda m: baseline_profile("copy", -1),
    lambda m: baseline_profile("copy", 2).rule_palette(5, 3),
    lambda m: baseline_profile("copy", 2).rule_palette(0, 3),
    lambda m: segment_table(m).segment_start(1.5),
    lambda m: segment_table(m).segment_of(3.5),
    lambda m: posterior_sequence(designed_profile(m), m, (1.5, 4)),
], ids=["myopic-horizon-fraction", "myopic-k-float", "baseline-k-float", "baseline-k-negative",
        "table-palette-reversed", "table-palette-from-0", "segment-start-fraction",
        "segment-of-fraction", "posterior-range-fraction"])
def test_argument_checks_raise_argument_error(call, m37):
    with pytest.raises(ArgumentError):
        call(m37)


def test_no_plain_value_or_type_error_is_raised():
    """Every argument check raises ``ArgumentError`` (exit 4 on the command
    line), so no module raises a bare ``ValueError`` or ``TypeError``."""
    found = [
        f"{path.name}:{i}"
        for path in sorted(Path(tandemlearn.__file__).parent.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"raise (ValueError|TypeError)\(", line)
    ]
    assert not found


_COPY2 = baseline_profile("copy", 2)


@pytest.mark.parametrize("cp", [5.5, np.float64(7.9), 7.0])
@pytest.mark.parametrize("call", [
    lambda m, cps: error_trajectory(_COPY2, m, 10, cps),
    lambda m, cps: designed_trajectory(m, 10, cps),
    lambda m, cps: brute_force_oracle(_COPY2, m, 10, cps),
    lambda m, cps: series_diagnostics(m, 10, cps),
    lambda m, cps: SimConfig(_COPY2, m, 10, checkpoints=cps),
    lambda m, cps: sweep(_COPY2, m, 10, cps),
], ids=["error-trajectory", "designed-trajectory", "oracle", "series", "sim-config", "sweep"])
def test_fractional_agents_are_refused_not_truncated(call, cp, m37):
    with pytest.raises(ArgumentError, match="must be integers"):
        call(m37, [3, cp])


def test_numpy_integer_agents_are_accepted(m37):
    cps = np.array([3, 7, 7], dtype=np.int64)
    for trajectory in (error_trajectory(_COPY2, m37, 10, cps), designed_trajectory(m37, 10, cps),
                       brute_force_oracle(_COPY2, m37, 10, cps)):
        assert trajectory.ns.tolist() == [3, 7]
    assert series_diagnostics(m37, 10, cps).checkpoints.tolist() == [3, 7]
    assert SimConfig(_COPY2, m37, 10, checkpoints=cps.astype(np.uint64)).checkpoints == (3, 7)
    assert sorted(sweep(_COPY2, m37, 10, cps - 3)) == [0, 4]
