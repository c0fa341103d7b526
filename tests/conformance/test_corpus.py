"""The pinned regression corpus: every case must replay clean, forever.

Each JSON file under ``corpus/`` is a (usually shrunken) execution pinning
a bug fixed in this repo or a boundary behavior worth guarding.  This
module replays the whole directory through the full conformance check on
every tier-1 run, so regressions reproduce their original minimized
counterexample immediately.
"""

from pathlib import Path

import pytest

from repro.conformance import (
    CASE_SCHEMA,
    CorpusCase,
    Mismatch,
    case_from_mismatch,
    load_corpus,
    replay_case,
    save_case,
)
from repro.conformance.corpus import load_case

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"


def _cases():
    return load_corpus(CORPUS_DIR)


def test_corpus_is_not_empty():
    assert len(_cases()) >= 5


@pytest.mark.parametrize(
    "case", _cases(), ids=lambda c: c.name
)
def test_corpus_case_replays_clean(case):
    mismatches = replay_case(case)
    assert mismatches == [], (
        f"{case.name} regressed: "
        f"{[(m.invariant, m.scheme, m.detail) for m in mismatches]}"
    )


@pytest.mark.parametrize(
    "case", _cases(), ids=lambda c: c.name
)
def test_corpus_case_documents_itself(case):
    assert case.notes, f"{case.name} needs a notes field explaining the pin"


class TestCaseFormat:
    def test_round_trip(self, tmp_path):
        case = CorpusCase(
            name="rt",
            n_processes=2,
            edges=((0, 1),),
            ops=(("send", 0, 0, 1), ("recv", 0)),
            fifo=True,
            schemes=("vector",),
            notes="round trip",
        )
        path = save_case(case, tmp_path)
        assert load_case(path) == case

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "nope/9", "name": "x"}')
        with pytest.raises(ValueError):
            load_case(bad)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent")

    def test_case_from_mismatch_pins_scheme(self):
        mm = Mismatch(
            invariant="exact-vs-hb",
            scheme="vector",
            detail="demo",
            n_processes=2,
            edges=((0, 1),),
            ops=(("local", 0),),
            fifo=False,
        )
        case = case_from_mismatch("demo", mm)
        assert case.schemes == ("vector",)
        assert case.notes == "demo"
        oracle_mm = Mismatch(
            invariant="oracle-differential",
            scheme="oracle",
            detail="demo",
            n_processes=2,
            edges=((0, 1),),
            ops=(("local", 0),),
            fifo=False,
        )
        assert case_from_mismatch("d2", oracle_mm).schemes is None

    def test_schema_constant_matches_files(self):
        import json

        for path in CORPUS_DIR.glob("*.json"):
            assert json.loads(path.read_text())["schema"] == CASE_SCHEMA
