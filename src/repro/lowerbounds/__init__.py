"""Executable lower-bound constructions from the paper's Section 2 and 4.3."""

from repro.lowerbounds.charron_bost import (
    CrownWitness,
    certified_dimension_lower_bound,
    charron_bost_execution,
)
from repro.lowerbounds.crowns import (
    crown_dimension_bound,
    find_crown,
    is_crown_embedding,
)
from repro.lowerbounds.flooding import flooding_adversary
from repro.lowerbounds.offline_star import (
    SearchOutcome,
    execution_dimension_exceeds_2,
    find_high_dimension_execution,
    offline_two_element_assignment,
    random_star_execution,
    theorem_4_4_witness,
)
from repro.lowerbounds.online import (
    DroppedCoordinateScheme,
    FoldedVectorScheme,
    ProjectedVectorScheme,
)
from repro.lowerbounds.posets import (
    Poset,
    has_dimension_at_most_2,
    realizer2,
    standard_example,
    transitive_orientation,
    two_element_vectors,
)
from repro.lowerbounds.realizers import (
    greedy_realizer,
    offline_vector_timestamps,
    verify_offline_vectors,
    verify_realizer,
)
from repro.lowerbounds.star_adversary import (
    AdversaryResult,
    star_adversary_integer,
    star_adversary_real,
)
from repro.lowerbounds.verify import (
    VectorAssignmentReport,
    Violation,
    ViolationKind,
    check_vector_assignment,
)

__all__ = [
    "CrownWitness",
    "certified_dimension_lower_bound",
    "charron_bost_execution",
    "crown_dimension_bound",
    "find_crown",
    "is_crown_embedding",
    "flooding_adversary",
    "SearchOutcome",
    "execution_dimension_exceeds_2",
    "find_high_dimension_execution",
    "offline_two_element_assignment",
    "random_star_execution",
    "theorem_4_4_witness",
    "DroppedCoordinateScheme",
    "FoldedVectorScheme",
    "ProjectedVectorScheme",
    "Poset",
    "has_dimension_at_most_2",
    "realizer2",
    "standard_example",
    "transitive_orientation",
    "two_element_vectors",
    "greedy_realizer",
    "offline_vector_timestamps",
    "verify_offline_vectors",
    "verify_realizer",
    "AdversaryResult",
    "star_adversary_integer",
    "star_adversary_real",
    "VectorAssignmentReport",
    "Violation",
    "ViolationKind",
    "check_vector_assignment",
]
