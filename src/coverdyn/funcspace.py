"""Finite function-space models with pointwise-convergence covering families.

A model holds finitely many functions sampled on a finite argument grid. Each
function is one point of a metric space whose coordinates are its table of
value vectors, flattened; the coordinates are the only copy of the tables.
Coverings constrain finitely many arguments to open value balls (all other
arguments are free), mirroring the product-style base for pointwise
convergence; member sets are materialized as explicit point sets over the
model. Value balls are measured on each argument's slice of the coordinates
by the space's one euclidean ball kernel, `space.ball_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .covering import AdmissibleFamily, Covering, chain_family, make_covering_masks
from .space import Space, ball_rows, build_metric_space

Value = tuple[float, ...]


@dataclass(frozen=True, eq=False)
class FunctionSpaceModel:
    """Functions on a finite argument grid, one sample point per function:
    the value of function i at argument j is the `value_dim` coordinates of
    point i from j * value_dim on."""

    space: Space
    value_dim: int

    def values_at(self, arg_index: int) -> list[Value]:
        """Every function's value at one argument, in point order."""
        lo = arg_index * self.value_dim
        return [p.coords[lo : lo + self.value_dim] for p in self.space.points]

    def observed_values(self, arg_index: int) -> tuple[Value, ...]:
        return tuple(sorted(set(self.values_at(arg_index))))


def as_value(v, dim: int) -> Value:
    out = tuple(float(x) for x in v)
    if len(out) != dim:
        raise ValueError(f"value {v!r} has dimension {len(out)}, expected {dim}")
    return out


def build_function_model(
    tables: Sequence[Sequence], labels: Sequence[str], value_dim: int = 1
) -> FunctionSpaceModel:
    """Build the model space; point coordinates are the flattened tables."""
    norm_tables = []
    for t in tables:
        norm_tables.append(tuple(as_value(v, value_dim) for v in t))
    if len(set(norm_tables)) != len(norm_tables):
        raise ValueError("duplicate function tables")
    coords = [[x for v in t for x in v] for t in norm_tables]
    space = build_metric_space(coords, ids=list(labels))
    return FunctionSpaceModel(space=space, value_dim=value_dim)


def _slabs(model: FunctionSpaceModel, arg: int, radius: float) -> list[int]:
    """Distinct nonempty point masks of the value balls of `radius` at one
    argument, centered at every value the model's functions take there and
    measured with the space's euclidean ball kernel (`ball_rows`)."""
    (balls,) = ball_rows(model.values_at(arg), model.observed_values(arg), [radius])
    return sorted({m for m in balls if m})


def pointwise_covering(
    model: FunctionSpaceModel, constraints: Sequence[tuple[int, float]]
) -> Covering:
    """Members are all nonempty products of per-argument value balls, one
    (argument, radius) pair per constrained argument."""
    members = [model.space.full_mask]
    for arg, radius in constraints:
        slabs = _slabs(model, arg, radius)
        members = sorted(
            {m & s for m in members for s in slabs if m & s}
        )
        if not members:
            raise ValueError(f"constraint at arg {arg} empties every member")
    parts = ",".join(f"{arg}@{radius:g}" for arg, radius in constraints)
    return make_covering_masks(model.space, members, label=f"pw[{parts}]")


def pointwise_chain(
    model: FunctionSpaceModel, levels: Sequence[Sequence[tuple[int, float]]]
) -> AdmissibleFamily:
    """Chain of pointwise coverings; double-refinements certified on construction."""
    covs = [pointwise_covering(model, cs) for cs in levels]
    return chain_family(model.space, covs)
