"""Covering-uniformity dynamics of semigroup actions on finite discretizations.

Computes stars, refinements, covering-valued proximities, measures of
noncompactness, omega-limit and prolongational limit sets, and global /
global uniform attractors for semigroup actions, at desk scale.
"""

from .space import (
    Point,
    Space,
    build_finite_topology,
    build_metric_space,
    line_grid,
)
from .covering import (
    AdmissibleFamily,
    Covering,
    chain_family,
    double_refines,
    finite_all_coverings_family,
    make_covering_masks,
    metric_chain_family,
    refines,
    verify_admissible,
)
from .proximity import (
    CoverCollection,
    coarsen,
    converges_to_zero,
    precedes,
    prox,
    prox_to_set,
    semi_prox,
    sets_equal_at_resolution,
)
from .compactness import (
    cantor_kuratowski_check,
    is_bounded,
    is_cauchy,
    is_totally_bounded,
    member_measure,
    star_measure,
)

__version__ = "0.1.0"
