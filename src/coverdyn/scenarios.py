"""Built-in desk-scale systems and config-driven system ingestion.

Each scenario bundles a space, a covering family, a semigroup action, a
filter basis, named test sets, a measure cap, the absorbing and
eventual-compactness candidates, and the expected verdicts. All built-in
arithmetic is dyadic, so actions land exactly on sample points; the only
snapping is an explicit underflow floor, checked against half the finest
covering radius at build time.
"""

from __future__ import annotations

import configparser
import inspect
import io
import json
import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .attractor import KINDS
from .covering import CHAIN_RATIO, AdmissibleFamily, metric_chain_family
from .compactness import default_cap, is_bounded
from .dynamics import (
    HYPOTHESIS_NAMES,
    Action,
    FilterBasis,
    integer_tails,
    nat_add,
    nat_mul,
    scaling_tails,
    vector_tails,
)
from .funcspace import (
    build_function_model,
    pointwise_chain,
    pointwise_covering,
)
from .space import CoverdynError, Space, line_grid


class SchemaError(CoverdynError):
    """The system config is malformed or references unknown kinds."""


class SnapToleranceExceeded(CoverdynError):
    """The action's snap error is not below half the finest star radius."""


@dataclass(frozen=True)
class Expected:
    """The expected end-to-end verdict: the attractor's point ids, the
    verdict kind and the translation hypotheses' verdicts by name that the
    `attractor` report compares against."""

    attractor: tuple[str, ...]
    kind: str  # one of attractor.KINDS
    hypotheses: dict[str, bool]


RANDOM_TESTSET_MAX_SIZE = 6


@dataclass(frozen=True, eq=False)
class Scenario:
    """A system and its expectations. `testsets` and `points_sample` are int
    masks; the points of `points_sample` are read in index order. `cap` is
    the measure cardinality cap, `absorbing_name` the test set offered as the
    absorbing candidate, and `compact_witness` the semigroup element offered
    for eventual compactness, or None. `params` are the builder arguments of
    a built-in, which `get_scenario` records."""

    name: str
    family: AdmissibleFamily
    action: Action
    filter_basis: FilterBasis
    testsets: dict[str, int]
    cap: int
    absorbing_name: str
    compact_witness: Optional[object]
    expected: Expected
    points_sample: int
    params: dict = field(default_factory=dict)

    @property
    def space(self) -> Space:
        return self.family.space

    def attractor_points(self) -> int:
        return self.space.mask_of(self.space.index_of(pid) for pid in self.expected.attractor)

    def random_bounded_testsets(self, rng, count: int) -> dict[str, int]:
        """Seeded random bounded subsets of the space's points. An unbounded
        draw keeps its points in the first covering's member that holds most
        of them, which relates any two of them; this draws no random numbers."""
        n = self.space.n
        out = {}
        for i in range(count):
            k = min(rng.randint(1, RANDOM_TESTSET_MAX_SIZE), n)
            draw = self.space.mask_of(rng.sample(range(n), k))
            if not is_bounded(draw, self.family):
                draw &= max(self.family.coverings[0].members, key=lambda m: (m & draw).bit_count())
            out[f"rand{i}"] = draw
        return out


def _validate(sc: Scenario, snap: float, finest_radius: float) -> Scenario:
    """Check the builder's snap error `snap`, associativity and the test sets."""
    if not snap < finest_radius / 2:
        raise SnapToleranceExceeded(
            f"snap error {snap:g} is not below half the finest "
            f"star radius {finest_radius / 2:g}"
        )
    bad = sc.action.check_associativity(sc.filter_basis.semigroup.compose, sc.filter_basis.probes())
    if bad is not None:
        s, t, x = bad
        pid = sc.space.points[x].pid
        raise SchemaError(f"action is not associative at s={s!r}, t={t!r}, point {pid}")
    for name, Y in sc.testsets.items():
        if not Y:
            raise SchemaError(f"test set {name!r} is empty")
        if not is_bounded(Y, sc.family):
            raise SchemaError(f"test set {name!r} is not bounded")
    return sc


def _pow2(j: int) -> float:
    return math.ldexp(1.0, j)


# ---------------------------------------------------------------------------
# iterated contractions: powers of affine contractions with fixed points on a
# compact sample; the constant functions at the fixed points attract everything
# ---------------------------------------------------------------------------

CONTRACTION_SNAP_EXP = 12


def scenario_iterated_contractions(
    depth: int = 12, eps0: float = 2.56, chain_depth: int = 5
) -> Scenario:
    fixed = (0.0, 0.25, 0.5, 0.75, 1.0)
    L = 0.5
    args = (-1.0, 1.0)
    esnap = CONTRACTION_SNAP_EXP

    labels, tables, meta = [], [], []
    for xf in fixed:
        labels.append(f"i[{xf:g}]")
        tables.append([(xf,), (xf,)])
        meta.append(("fix", xf, 0))
    for xf in fixed:
        for e in range(1, esnap):
            labels.append(f"pow[{xf:g}]e{e}")
            tables.append([(xf + L**e * (z - xf),) for z in args])
            meta.append(("pow", xf, e))
    model = build_function_model(tables, labels, value_dim=1)
    space = model.space
    lookup = {m: i for i, m in enumerate(meta)}

    def apply_fn(n, i):
        kind, xf, e = meta[i]
        if kind == "fix":
            return i
        e2 = e * n
        if e2 >= esnap:
            return lookup[("fix", xf, 0)]
        return lookup[("pow", xf, e2)]

    radii = [eps0 * 0.25**i for i in range(chain_depth + 1)]
    levels = [[(0, r), (1, r)] for r in radii]
    family = pointwise_chain(model, levels)

    action = Action(space=space, apply_fn=apply_fn)
    F = integer_tails(nat_mul(), depth=depth, window=4, start=1)

    attractor_pids = tuple(f"i[{xf:g}]" for xf in fixed)
    testsets = {
        "whole": space.full_mask,
        "attractor": (1 << len(fixed)) - 1,
        "seed": 1 << lookup[("pow", 0.75, 1)],
        "pair": 1 << lookup[("pow", 0.0, 1)] | 1 << lookup[("pow", 1.0, 2)],
    }
    delta = max(abs(z - xf) for z in args for xf in fixed)
    expected = Expected(
        attractor=attractor_pids,
        kind="both",
        hypotheses={
            "left_translate_into": True,
            "right_translate_into": True,
            "within_right_translate": False,
            "within_left_translate": False,
        },
    )
    sc = Scenario(
        name="iterated_contractions",
        family=family,
        action=action,
        filter_basis=F,
        testsets=testsets,
        cap=default_cap(space.n),
        absorbing_name="attractor",
        compact_witness=esnap,
        expected=expected,
        points_sample=space.full_mask,
    )
    return _validate(sc, _pow2(-esnap) * delta, radii[-1])


# ---------------------------------------------------------------------------
# composition semigroup: contractive scalings about a common fixed point act
# by post-composition on Lipschitz function samples
# ---------------------------------------------------------------------------

def scenario_composition(
    x0: float = 0.0, depth: int = 12, eps0: float = 2.56, chain_depth: int = 5
) -> Scenario:
    L = 0.5
    esnap = CONTRACTION_SNAP_EXP
    # Lipschitz-1 functions, tabulated at the arguments -1, 0 and 1
    seeds = {
        "id": (-1.0, 0.0, 1.0),
        "vee": (1.0, 0.0, 1.0),
        "one": (1.0, 1.0, 1.0),
        "shift": (0.0, 0.5, 1.0),
        "nvee": (-1.0, 0.0, -1.0),
    }

    labels, tables, meta = [f"i[{x0:g}]"], [[(x0,)] * 3], [("fix", None, 0)]
    for sname, vals in seeds.items():
        for e in range(0, esnap):
            labels.append(f"{sname}.e{e}")
            tables.append([(x0 + L**e * (v - x0),) for v in vals])
            meta.append(("seed", sname, e))
    model = build_function_model(tables, labels, value_dim=1)
    space = model.space
    lookup = {m: i for i, m in enumerate(meta)}

    def apply_fn(c, i):
        kind, sname, e = meta[i]
        if kind == "fix":
            return i
        j = round(-math.log2(abs(c)))
        e2 = e + j
        if e2 >= esnap:
            return lookup[("fix", None, 0)]
        return lookup[("seed", sname, e2)]

    radii = [eps0 * 0.25**i for i in range(chain_depth + 1)]
    levels = [[(a, r) for a in range(3)] for r in radii]
    family = pointwise_chain(model, levels)

    action = Action(space=space, apply_fn=apply_fn)
    F = scaling_tails(depth=depth, window=3, L=L)

    testsets = {
        "whole": space.full_mask,
        "attractor": 1,
        "seed": 1 << lookup[("seed", "id", 0)],
        "pair": 1 << lookup[("seed", "vee", 1)] | 1 << lookup[("seed", "shift", 0)],
    }
    expected = Expected(
        attractor=(f"i[{x0:g}]",),
        kind="both",
        hypotheses=dict.fromkeys(HYPOTHESIS_NAMES, True),
    )
    sc = Scenario(
        name="composition",
        family=family,
        action=action,
        filter_basis=F,
        testsets=testsets,
        cap=default_cap(space.n),
        absorbing_name="attractor",
        compact_witness=_pow2(-esnap),
        expected=expected,
        points_sample=space.full_mask,
    )
    snap = _pow2(-esnap) * max(abs(v - x0) for t in tables for (v,) in t)
    return _validate(sc, snap, radii[-1])


# ---------------------------------------------------------------------------
# coordinatewise exponential decay on a two-argument function sample: the
# zero function is the uniform attractor, but scaled-up witnesses defeat
# global attraction at every truncation level
# ---------------------------------------------------------------------------

DECAY_FLOOR_EXP = -7
DECAY_WITNESS_MAX = 22


def scenario_exp_decay(window: int = 4) -> Scenario:
    # each table holds the values at the arguments (0, 0) and (1, 1); the
    # witness family is tuned to the filter truncation DECAY_WITNESS_MAX
    floor = DECAY_FLOOR_EXP
    kmax = DECAY_WITNESS_MAX

    labels, tables, meta = ["zero"], [[(0.0, 0.0), (0.0, 0.0)]], [None]
    for j in range(floor, 1):  # small values 2^floor .. 2^0
        v = _pow2(j)
        labels.append(f"eps{-j}")
        tables.append([(0.0, 0.0), (v, v)])
        meta.append(j)
    for k in range(0, kmax + 1):  # witnesses f_k with value 2^(k+1)
        v = _pow2(k + 1)
        labels.append(f"f{k}")
        tables.append([(0.0, 0.0), (v, v)])
        meta.append(k + 1)
    model = build_function_model(tables, labels, value_dim=2)
    space = model.space
    by_exp = {j: i for i, j in enumerate(meta) if j is not None}

    def apply_fn(t, i):
        if t[0] != t[1]:
            raise SchemaError("the decay sample is tuned to diagonal elements")
        j = meta[i]
        if j is None:
            return i
        j2 = j - t[0]
        if j2 < floor:
            return 0  # the zero function
        return by_exp[j2]

    radii = [16.0, 4.0, 1.0, 0.25, 0.0625, 0.015625]
    levels = [[(0, radii[0])]] + [[(0, r), (1, r)] for r in radii[1:]]
    family = pointwise_chain(model, levels)

    action = Action(space=space, apply_fn=apply_fn)
    F = vector_tails(2, depth=kmax, window=window)

    unit = pointwise_covering(model, [(0, 1.0)])
    testsets = {
        "orbit-star": unit.star_mask(1),
        "seed": 1 << by_exp[3],
        "small": 1 | 1 << by_exp[-7] | 1 << by_exp[-6] | 1 << by_exp[-5],
    }
    sample = sum(1 << i for i, j in enumerate(meta) if j is None or j <= 16)
    expected = Expected(
        attractor=("zero",),
        kind="global-uniform-only",
        hypotheses=dict.fromkeys(HYPOTHESIS_NAMES, True),
    )
    sc = Scenario(
        name="exp_decay",
        family=family,
        action=action,
        filter_basis=F,
        testsets=testsets,
        cap=6,
        absorbing_name="orbit-star",
        compact_witness=None,
        expected=expected,
        points_sample=sample,
    )
    return _validate(sc, _pow2(floor - 1) * math.sqrt(2.0), radii[-1])


# ---------------------------------------------------------------------------
# geometric decay on the unit grid: index halving, exactly associative
# ---------------------------------------------------------------------------

def scenario_decay_grid(
    count: int = 101, chain_depth: int = 3, depth: int = 10, window: int = 8
) -> Scenario:
    space = line_grid(0.0, 1.0, count)
    family = metric_chain_family(space, 2.0, chain_depth)
    finest_radius = 2.0 * CHAIN_RATIO**chain_depth

    action = Action(space=space, apply_fn=lambda t, i: i >> t)
    F = integer_tails(nat_add(), depth=depth, window=window)
    step = 1.0 / (count - 1) if count > 1 else 0.0
    testsets = {
        "whole": space.full_mask,
        "seed": 1 << (space.n - 1),
        "low-ball": space.mask_of(i for i, p in enumerate(space.points) if abs(p.coords[0]) < 0.15),
    }
    expected = Expected(
        attractor=(space.points[0].pid,),
        kind="both",
        hypotheses=dict.fromkeys(HYPOTHESIS_NAMES, True),
    )
    sc = Scenario(
        name="decay_grid",
        family=family,
        action=action,
        filter_basis=F,
        testsets=testsets,
        cap=default_cap(space.n),
        absorbing_name="low-ball",
        compact_witness=7,
        expected=expected,
        points_sample=space.mask_of(range(0, space.n, 10)),
    )
    return _validate(sc, step, finest_radius)


BUILTIN_SCENARIOS: dict[str, Callable[..., Scenario]] = {
    "iterated_contractions": scenario_iterated_contractions,
    "composition": scenario_composition,
    "exp_decay": scenario_exp_decay,
    "decay_grid": scenario_decay_grid,
}


def get_scenario(name: str, **overrides) -> Scenario:
    if name not in BUILTIN_SCENARIOS:
        raise SchemaError(
            f"unknown scenario {name!r}; known: {sorted(BUILTIN_SCENARIOS)}"
        )
    builder = BUILTIN_SCENARIOS[name]
    bound = inspect.signature(builder).bind(**overrides)
    bound.apply_defaults()
    return replace(builder(**overrides), params=bound.arguments)


# ---------------------------------------------------------------------------
# config-driven ingestion: INI sections with JSON-typed values
# ---------------------------------------------------------------------------

def _parse(cfg_text: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(cfg_text)
    except configparser.Error as e:
        raise SchemaError(f"config parse error: {e}") from e
    return cp


def _jget(cp, section, key, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise SchemaError(f"missing [{section}] {key}")
        return default
    try:
        raw = cp.get(section, key)
    except configparser.Error as e:
        raise SchemaError(f"bad value for [{section}] {key}: {e}") from e
    try:
        return json.loads(raw)
    except json.JSONDecodeError as e:
        raise SchemaError(f"bad JSON for [{section}] {key}: {raw!r}") from e


def _config_int(cp, section, key, default=None, required=False) -> int:
    # bool is an int subclass, and int() would truncate a float
    value = _jget(cp, section, key, default, required)
    if type(value) is not int:
        raise SchemaError(f"[{section}] {key}: {value!r} is not an integer")
    return value


def _config_number(cp, section, key, default=None, required=False) -> float:
    value = _jget(cp, section, key, default, required)
    if type(value) not in (int, float):
        raise SchemaError(f"[{section}] {key}: {value!r} is not a number")
    # JSON reads Infinity and NaN as floats
    if not math.isfinite(value):
        raise SchemaError(f"[{section}] {key}: {value!r} is not a finite number")
    return value


def _config_point(value, space: Space, where: str) -> int:
    # bool is an int subclass; a float or negative index would truncate or wrap
    if type(value) is not int or not 0 <= value < space.n:
        raise SchemaError(f"{where}: {value!r} is not a point index in [0, {space.n})")
    return value


def _config_element(value, where: str) -> int:
    # the custom semigroup is nat_add: bool is an int subclass, and a float,
    # a negative or a string shift fails only once the action runs
    if type(value) is not int or value < 0:
        raise SchemaError(f"{where}: {value!r} is not a nonnegative integer")
    return value


# Every section and key that a custom config may hold, the one declaration
# that the loader checks a config against. A section maps to its keys, or to
# the value of its `kind` key and the keys of that kind besides `kind` (the
# kind None: the section has no `kind`, or is absent). [testsets] names are
# free, apart from the reserved rand<k>. A built-in kind reads [scenario]
# alone, and its keys are `kind` and its builder's parameters.
CUSTOM_SCHEMA = {
    "scenario": ("kind", "name"),
    "space": {"line_grid": ("start", "stop", "count")},
    "family": {"metric_chain": ("eps0", "depth")},
    "action": {"halving_decay": (), "identity": ()},
    "semigroup": {None: (), "nat_add": ()},
    "filter": {"integer_tails": ("depth", "window"), "explicit": ("levels",)},
    "testsets": None,
    "declared": ("cap", "eventually_compact_witness"),
    "expectations": ("attractor", "kind"),
}


def _check_keys(cp, kind: str) -> None:
    """Reject every section and key that a config of this kind does not read,
    and every section kind that the schema does not name."""
    if kind == "custom":
        allowed = {}
        for section, keys in CUSTOM_SCHEMA.items():
            if isinstance(keys, dict):
                skind = _jget(cp, section, "kind", required=None not in keys)
                if skind not in tuple(keys):  # a tuple: a JSON list is unhashable
                    raise SchemaError(f"unsupported {section} kind {skind!r}")
                keys = ("kind", *keys[skind])
            allowed[section] = keys
    else:
        allowed = {"scenario": ("kind", *inspect.signature(BUILTIN_SCENARIOS[kind]).parameters)}
    for section in cp.sections():
        if section not in allowed:
            raise SchemaError(f"unknown section [{section}] for kind {kind}")
        keys = allowed[section]
        for key in cp.options(section):
            if keys is not None and key not in keys:
                raise SchemaError(f"unknown key [{section}] {key}")


def load_system(cfg_text: str) -> Scenario:
    """Build a scenario from sectioned config text (snap checks enforced).

    Every section and key must be one that the config's kind reads
    (`CUSTOM_SCHEMA`), or the config is rejected before anything is built.
    A value that the builders reject with a non-coverdyn exception (a wrong
    type, an out-of-range number or index) is reported as a SchemaError.
    """
    cp = _parse(cfg_text)
    if not cp.has_section("scenario"):
        raise SchemaError("missing [scenario] section")
    kind = _jget(cp, "scenario", "kind", required=True)
    if kind not in ("custom", *BUILTIN_SCENARIOS):
        raise SchemaError(f"unknown scenario kind {kind!r}")
    _check_keys(cp, kind)
    try:
        if kind == "custom":
            return _load_custom(cp)
        params = {k: _jget(cp, "scenario", k) for k in cp.options("scenario") if k != "kind"}
        flags = sorted(k for k, v in params.items() if type(v) is bool)
        if flags:
            raise SchemaError(f"[scenario] {flags[0]}: a boolean is not a number")
        return get_scenario(kind, **params)
    except (TypeError, ValueError, LookupError, ArithmeticError) as e:
        raise SchemaError(f"bad config value: {e}") from e


def _load_custom(cp) -> Scenario:
    # `_check_keys` has read every section kind against CUSTOM_SCHEMA
    start = _config_number(cp, "space", "start", 0.0)
    stop = _config_number(cp, "space", "stop", 1.0)
    count = _config_int(cp, "space", "count", required=True)
    space = line_grid(start, stop, count)
    step = (stop - start) / (count - 1) if count > 1 else 0.0

    eps0 = _config_number(cp, "family", "eps0", required=True)
    chain_depth = _config_int(cp, "family", "depth", required=True)
    family = metric_chain_family(space, eps0, chain_depth)
    finest_radius = eps0 * CHAIN_RATIO**chain_depth

    if _jget(cp, "action", "kind") == "halving_decay":
        apply_fn = lambda t, i: i >> t
        snap = step
    else:  # identity
        apply_fn = lambda t, i: i
        snap = 0.0

    sem = nat_add()
    action = Action(space=space, apply_fn=apply_fn)

    if _jget(cp, "filter", "kind") == "integer_tails":
        F = integer_tails(
            sem,
            depth=_config_int(cp, "filter", "depth", required=True),
            window=_config_int(cp, "filter", "window", 4),
        )
    else:  # explicit
        levels = _jget(cp, "filter", "levels", required=True)
        if type(levels) is not list or any(type(lv) is not list for lv in levels):
            raise SchemaError(f"[filter] levels: {levels!r} is not a list of lists of semigroup elements")
        level_sets = [
            frozenset(_config_element(el, "[filter] levels") for el in lv) for lv in levels
        ]
        F = FilterBasis(
            semigroup=sem,
            depth=len(level_sets) - 1,
            contains=lambda el, k: el in level_sets[k],
            level_samples=tuple(tuple(sorted(lv)) for lv in level_sets),
        )

    testsets = {}
    if cp.has_section("testsets"):
        for name in cp.options("testsets"):
            if re.fullmatch("rand[0-9]+", name):
                raise SchemaError(f"[testsets] {name}: the name is reserved for random test sets")
            raw = _jget(cp, "testsets", name, required=True)
            where = f"[testsets] {name}"
            if raw == "all":
                testsets[name] = space.full_mask
            elif type(raw) is list:
                testsets[name] = space.mask_of(_config_point(i, space, where) for i in raw)
            else:
                raise SchemaError(f'{where}: {raw!r} is not "all" or a list of point indices')
    if not testsets:
        testsets = {"whole": space.full_mask}

    cap = _config_int(cp, "declared", "cap", default_cap(space.n))
    if cap < 1:
        raise SchemaError(f"[declared] cap must be at least 1; got {cap}")
    witness = _jget(cp, "declared", "eventually_compact_witness")
    if witness is not None:
        _config_element(witness, "[declared] eventually_compact_witness")
    attractor_idx = _jget(cp, "expectations", "attractor", [0])
    if type(attractor_idx) is not list:
        raise SchemaError(f"[expectations] attractor: {attractor_idx!r} is not a list of point indices")
    kind_expect = _jget(cp, "expectations", "kind", "both")
    if kind_expect not in KINDS:
        raise SchemaError(f"[expectations] kind: {kind_expect!r} is not one of {list(KINDS)}")

    expected = Expected(
        attractor=tuple(
            space.points[_config_point(i, space, "[expectations] attractor")].pid
            for i in attractor_idx
        ),
        kind=kind_expect,
        hypotheses={},
    )
    name = _jget(cp, "scenario", "name", "custom")
    if type(name) is not str:
        raise SchemaError(f"[scenario] name: {name!r} is not a string")
    if name in BUILTIN_SCENARIOS:
        # scenario_to_config would write it as that built-in's kind
        raise SchemaError(f"[scenario] name: {name!r} names a built-in scenario")
    sc = Scenario(
        name=name,
        family=family,
        action=action,
        filter_basis=F,
        testsets=testsets,
        cap=cap,
        absorbing_name=next(iter(testsets)),
        compact_witness=witness,
        expected=expected,
        points_sample=space.mask_of(range(0, space.n, max(1, space.n // 10))),
    )
    return _validate(sc, snap, finest_radius)


def scenario_to_config(sc: Scenario) -> str:
    """Serialize a built-in scenario to config text (round-trips via load_system)."""
    if sc.name not in BUILTIN_SCENARIOS:
        raise SchemaError(f"only built-in scenarios serialize; got {sc.name!r}")
    cp = configparser.ConfigParser()
    cp["scenario"] = {"kind": json.dumps(sc.name)}
    for k, v in sc.params.items():
        cp["scenario"][k] = json.dumps(v)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
