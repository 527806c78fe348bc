"""widecount: exact orbit counting for symmetric wide configurations.

Quasipolynomial fitting from integer sequences, Cauchy-Frobenius and
groupoid orbit counting, Stanley decompositions with exact lattice-point
level counts, model-functor presentations with groupoid extraction, the
worked-example gallery, and linear-code classification.  All arithmetic is
exact (integers and fractions); no floating point anywhere.
"""

from .actions import (
    Arrow,
    Groupoid,
    GroupoidAction,
    NotAnAction,
    PermGroup,
    Permutation,
    TooLarge,
    budget,
    canonical_form,
    group_orbit_count,
    group_orbits_enumerate,
    groupoid_orbit_count,
    groupoid_orbits_enumerate,
)
from .lattice import (
    DownwardClosedSet,
    StanleyPiece,
    WeightedLevelProblem,
    count_level,
    cycle_contract,
    denumerant,
    fixed_count_level,
    level_quasipolynomial,
    stanley_decompose,
)
from .quasipoly import (
    FittedQuasipolynomial,
    NoFit,
    Quasipolynomial,
    build_quasipolynomial,
    fit,
    fit_sequence,
    read_sequence_csv,
    write_sequence_csv,
)

__version__ = "0.1.0"

__all__ = [
    "Arrow",
    "DownwardClosedSet",
    "FittedQuasipolynomial",
    "Groupoid",
    "GroupoidAction",
    "NoFit",
    "NotAnAction",
    "PermGroup",
    "Permutation",
    "Quasipolynomial",
    "StanleyPiece",
    "TooLarge",
    "WeightedLevelProblem",
    "budget",
    "build_quasipolynomial",
    "canonical_form",
    "count_level",
    "cycle_contract",
    "denumerant",
    "fit",
    "fit_sequence",
    "fixed_count_level",
    "group_orbit_count",
    "group_orbits_enumerate",
    "groupoid_orbit_count",
    "groupoid_orbits_enumerate",
    "level_quasipolynomial",
    "read_sequence_csv",
    "stanley_decompose",
    "write_sequence_csv",
]
