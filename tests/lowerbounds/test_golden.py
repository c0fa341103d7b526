"""``repro lower-bound`` and ``repro experiments`` print the checked-in bytes.

The files under ``golden/`` were recorded while the lower bounds still had
their own clock interface and mismatch decoder; CI's ``trace-determinism``
job ``cmp``s the same commands' stdout against them.  A ``counterexample:``
line names the violation the checker reports first on the proof's pair, so
it pins the violation order as well as the vectors.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("claim", ["2.1", "2.2", "2.3", "2.4", "4.4"])
def test_lower_bound_output(claim, capsys):
    assert main(["lower-bound", claim, "--n", "6"]) == 0
    expected = (GOLDEN / f"lower_bound_{claim}_n6.txt").read_text()
    assert capsys.readouterr().out == expected


def test_experiments_output(capsys):
    assert main(["experiments"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "experiments.txt").read_text()
