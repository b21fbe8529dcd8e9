"""Finite function-space models with pointwise-convergence covering families.

A model holds finitely many functions sampled on a finite argument grid, each
stored as a table of value vectors. Coverings constrain finitely many
arguments to open value balls (all other arguments are free), mirroring the
product-style base for pointwise convergence; member sets are materialized as
explicit point sets over the model. Value balls are measured by the space's
one euclidean norm kernel, `space.ball_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .covering import AdmissibleFamily, Covering, chain_family, make_covering_masks
from .space import Space, ball_rows, build_metric_space

Value = tuple[float, ...]
Table = tuple[Value, ...]


@dataclass(frozen=True, eq=False)
class FunctionSpaceModel:
    """Functions on a finite argument grid, one sample point per function
    table: `tables[i][j]` is the value of function i at argument j."""

    space: Space
    tables: tuple[Table, ...]

    def observed_values(self, arg_index: int) -> tuple[Value, ...]:
        return tuple(sorted({t[arg_index] for t in self.tables}))


def as_value(v, dim: int) -> Value:
    if isinstance(v, (int, float)):
        if dim != 1:
            raise ValueError("scalar value in a vector-valued model")
        return (float(v),)
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
    space = build_metric_space(coords, metric="sup", ids=list(labels))
    return FunctionSpaceModel(space=space, tables=tuple(norm_tables))


@dataclass(frozen=True)
class ArgConstraint:
    """One constrained argument: open value balls of one radius around each center."""

    arg_index: int
    radius: float
    centers: tuple[Value, ...]


def constraint(model: FunctionSpaceModel, arg_index: int, radius: float) -> ArgConstraint:
    """Value balls of `radius` at one argument, centered at every value the
    model's functions take there."""
    return ArgConstraint(
        arg_index=arg_index, radius=float(radius), centers=model.observed_values(arg_index)
    )


def _slabs(model: FunctionSpaceModel, c: ArgConstraint) -> list[int]:
    """Distinct nonempty point masks of the per-center value balls at one
    argument, measured with the space's euclidean norm kernel (`ball_rows`)."""
    values = [t[c.arg_index] for t in model.tables]
    return sorted({m for m in ball_rows(values, c.centers, c.radius) if m})


def pointwise_covering(
    model: FunctionSpaceModel, constraints: Sequence[ArgConstraint]
) -> Covering:
    """Members are all nonempty products of per-argument value balls."""
    members = [model.space.full_mask]
    for c in constraints:
        slabs = _slabs(model, c)
        members = sorted(
            {m & s for m in members for s in slabs if m & s}
        )
        if not members:
            raise ValueError(f"constraint at arg {c.arg_index} empties every member")
    parts = ",".join(f"{c.arg_index}@{c.radius:g}" for c in constraints)
    return make_covering_masks(model.space, members, label=f"pw[{parts}]")


def pointwise_chain(
    model: FunctionSpaceModel, levels: Sequence[Sequence[ArgConstraint]]
) -> AdmissibleFamily:
    """Chain of pointwise coverings; double-refinements certified on construction."""
    covs = [pointwise_covering(model, cs) for cs in levels]
    return chain_family(model.space, covs)
