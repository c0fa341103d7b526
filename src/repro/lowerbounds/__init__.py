"""Executable lower-bound constructions from the paper's Section 2 and 4.3."""

from typing import TYPE_CHECKING

_EXPORTS = {
    "charron_bost": (
        "CrownWitness", "certified_dimension_lower_bound", "charron_bost_execution",
    ),
    "crowns": ("find_crown", "is_crown_embedding"),
    "flooding": ("flooding_adversary",),
    "offline_star": (
        "SearchOutcome", "execution_dimension_exceeds_2",
        "find_high_dimension_execution", "offline_two_element_assignment",
        "random_star_execution", "theorem_4_4_witness",
    ),
    "online": (
        "DroppedCoordinateScheme", "FoldedVectorScheme", "ProjectedVectorScheme",
    ),
    "posets": ("Poset", "has_dimension_at_most_2", "realizer2", "two_element_vectors"),
    "realizers": (
        "offline_vector_timestamps", "verify_offline_vectors", "verify_realizer",
    ),
    "star_adversary": (
        "AdversaryResult", "star_adversary_integer", "star_adversary_real",
    ),
    "verify": (
        "VectorAssignmentReport", "Violation", "ViolationKind",
        "check_vector_assignment",
    ),
}

if TYPE_CHECKING:
    from repro.lowerbounds.charron_bost import (
        CrownWitness as CrownWitness,
        certified_dimension_lower_bound as certified_dimension_lower_bound,
        charron_bost_execution as charron_bost_execution,
    )
    from repro.lowerbounds.crowns import (
        find_crown as find_crown, is_crown_embedding as is_crown_embedding,
    )
    from repro.lowerbounds.flooding import flooding_adversary as flooding_adversary
    from repro.lowerbounds.offline_star import (
        SearchOutcome as SearchOutcome,
        execution_dimension_exceeds_2 as execution_dimension_exceeds_2,
        find_high_dimension_execution as find_high_dimension_execution,
        offline_two_element_assignment as offline_two_element_assignment,
        random_star_execution as random_star_execution,
        theorem_4_4_witness as theorem_4_4_witness,
    )
    from repro.lowerbounds.online import (
        DroppedCoordinateScheme as DroppedCoordinateScheme,
        FoldedVectorScheme as FoldedVectorScheme,
        ProjectedVectorScheme as ProjectedVectorScheme,
    )
    from repro.lowerbounds.posets import (
        Poset as Poset, has_dimension_at_most_2 as has_dimension_at_most_2,
        realizer2 as realizer2, two_element_vectors as two_element_vectors,
    )
    from repro.lowerbounds.realizers import (
        offline_vector_timestamps as offline_vector_timestamps,
        verify_offline_vectors as verify_offline_vectors,
        verify_realizer as verify_realizer,
    )
    from repro.lowerbounds.star_adversary import (
        AdversaryResult as AdversaryResult,
        star_adversary_integer as star_adversary_integer,
        star_adversary_real as star_adversary_real,
    )
    from repro.lowerbounds.verify import (
        VectorAssignmentReport as VectorAssignmentReport, Violation as Violation,
        ViolationKind as ViolationKind,
        check_vector_assignment as check_vector_assignment,
    )
else:
    from repro._exports import lazy_exports

    __all__ = [name for names in _EXPORTS.values() for name in names]
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
