"""Differential conformance fuzzing for clock schemes and oracles.

The paper's claims are relational — every comparison operator must agree
with happened-before — so this package cross-checks all registered clock
schemes and both causality-oracle flavors on the *same* randomized
executions, shrinks any divergence to a minimal counterexample, and pins
fixed bugs in a replayable corpus.  See :mod:`repro.conformance.fuzzer`
for the four invariants, :mod:`repro.conformance.registry` for the scheme
table, and ``repro conformance --help`` for the CLI entry point.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "corpus": (
        "CASE_SCHEMA", "CorpusCase", "case_from_mismatch", "load_corpus",
        "replay_case", "save_case",
    ),
    "fuzzer": ("INVARIANTS", "ConformanceReport", "Mismatch", "check_execution", "fuzz"),
    "registry": (
        "SchemeSpec", "all_schemes", "scheme_by_name", "schemes_for", "star_center_of",
    ),
    "shrinker": ("shrink_mismatch",),
}

if TYPE_CHECKING:
    from repro.conformance.corpus import (
        CASE_SCHEMA as CASE_SCHEMA, CorpusCase as CorpusCase,
        case_from_mismatch as case_from_mismatch, load_corpus as load_corpus,
        replay_case as replay_case, save_case as save_case,
    )
    from repro.conformance.fuzzer import (
        INVARIANTS as INVARIANTS, ConformanceReport as ConformanceReport,
        Mismatch as Mismatch, check_execution as check_execution, fuzz as fuzz,
    )
    from repro.conformance.registry import (
        SchemeSpec as SchemeSpec, all_schemes as all_schemes,
        scheme_by_name as scheme_by_name, schemes_for as schemes_for,
        star_center_of as star_center_of,
    )
    from repro.conformance.shrinker import shrink_mismatch as shrink_mismatch
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
