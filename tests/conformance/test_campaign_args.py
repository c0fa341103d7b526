"""Campaign coordinates no trial can run on are refused up front.

A negative step bound used to run every trial on an empty execution and
report OK; an empty topology list used to fail with ``ZeroDivisionError``
inside the first trial.  Both are now a ``ValueError`` before any trial,
and the CLI says which flag was wrong.
"""

import pytest

from repro.cli import main
from repro.conformance import fuzz
from repro.conformance.fuzzer import generate_trial
from repro.conformance.fuzzer import ConformanceReport, run_trials

BAD = [
    ((), 10, "at least one family"),
    (("star", "ring"), 10, "unknown topology kind 'ring'"),
    (("star",), -4, "max_steps must be >= 0, got -4"),
]


@pytest.mark.parametrize("topologies, max_steps, match", BAD)
def test_generate_trial_refuses(topologies, max_steps, match):
    with pytest.raises(ValueError, match=match):
        generate_trial(0, 0, topologies, max_steps)


@pytest.mark.parametrize("topologies, max_steps, match", BAD)
def test_a_campaign_refuses_before_any_trial(topologies, max_steps, match):
    with pytest.raises(ValueError, match=match):
        fuzz(0, topologies=topologies, max_steps=max_steps)
    report = ConformanceReport()
    with pytest.raises(ValueError, match=match):
        run_trials(report, 0, 3, topologies=topologies, max_steps=max_steps)
    assert report.trials == 0 and report.checks == {}


def test_zero_steps_is_a_campaign():
    report = fuzz(3, max_steps=0, backend="pure")
    assert report.ok and report.trials == 3


def test_cli_names_the_negative_step_bound(capsys):
    assert main(["conformance", "--steps", "-4", "--trials", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip() == "repro: error: --steps must be >= 0, got -4"
    assert "conformance: OK" not in captured.out
