"""Design rules of the package, each one data row: a pattern that must not
occur, the paths it is searched in and the reason it holds.

A path is a file, a directory (every file under it, as `grep -r` reads it,
except byte-code caches and build metadata) or a glob. A pattern is searched
line by line, like `grep -E`. Each rule is checked on the repository and
must fail on a violation planted in a temporary copy.
"""

import pathlib
import re
import shutil
from dataclasses import dataclass
from typing import Optional

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = "src/coverdyn/*.py"
GENERATED = ("__pycache__", ".egg-info")


@dataclass(frozen=True)
class Rule:
    name: str
    pattern: Optional[str]  # None: the paths must not exist
    paths: tuple[str, ...]
    reason: str
    planted: str  # a line the rule rejects
    # reported lines "path:line: text" that match `unless` pass (`grep -v`)
    unless: Optional[str] = None
    # the files that must match, and no others
    only: Optional[tuple[str, ...]] = None
    # search only from the line matching within[0] through the next line
    # matching within[1], like `sed -n '/a/,/b/p'`; an empty range fails
    within: Optional[tuple[str, str]] = None


RULES = [
    Rule(
        "numpy-in-space-alone",
        r"^\s*(import|from)\s+numpy",
        (MODULES,),
        "numpy is imported by space.py alone",
        "import numpy as np",
        only=("src/coverdyn/space.py",),
    ),
    Rule(
        "int-mask-sets",
        r"frozenset\[Point\]|points_of",
        (MODULES,),
        "point sets are int masks, with no second set type",
        "def points_of(mask): pass",
    ),
    Rule(
        "no-declared-copies",
        r"prox_form_agrees|divergent_sequence|resolving: bool|eventually_compact: bool|global_ok"
        r"|attraction_(index|bound)|failure_index|spread_(first_arg|delta1|lipschitz)|metric_name",
        (MODULES,),
        "each verdict is computed once, with no declared copy of a computed fact",
        "    resolving: bool",
    ),
    Rule(
        "one-hypothesis-body",
        r"_single_holds",
        ("src/coverdyn",),
        "the translation hypotheses have one body, the table pass",
        "def _single_holds(): pass",
    ),
    Rule(
        "one-star-body",
        r"cov.star_mask\(",
        ("src/coverdyn",),
        "stars of a set have one body, in covering.py",
        "star = cov.star_mask(ymask)",
        unless=r"covering\.py",
    ),
    Rule(
        "check-result-rows",
        r"HypothesisReport|UniquenessReport|AxiomReport|TaxonomyReport|forward_holds|converse_holds"
        r"|converse_applicable|hypothesis_ok|include_chain_harness",
        ("src",),
        "every verdict is a CheckResult row in a CheckList",
        "class AxiomReport: pass",
    ),
    Rule(
        "no-scripts",
        None,
        ("scripts",),
        "scripts/ stays gone: the CLI and the library are the entry points",
        "",
    ),
    Rule(
        "input-checks-only",
        r"_validate_metric|TRIANGLE_SLACK|MetricAxiomViolation",
        ("src",),
        "metric spaces check their input, not the metric axioms a norm proves",
        "TRIANGLE_SLACK = 1e-9",
    ),
    Rule(
        "no-distance-table",
        r"\.dist\b|METRICS|metric=",
        (MODULES,),
        "a metric space stores its coordinates, not a distance table: balls come "
        "from the coordinates through space.ball_rows, under the one euclidean norm",
        "d = space.dist[0, 1]",
    ),
    Rule(
        "one-norm-kernel",
        r"_dist2",
        ("src",),
        "pointwise balls use the space's norm kernel",
        "def _dist2(a, b): pass",
    ),
    Rule(
        "one-family-kind",
        r"\b(CHAIN|FINITE|Threshold|ChainKindUnsupported|finest_index|nearest_index)\b"
        r"|CoverCollection\.chain|\.threshold\b|pow2_decay",
        ("src", "README.md"),
        "families have one kind and collections one encoding",
        "kind = CHAIN",
    ),
    Rule(
        "one-ball-comparison",
        r"ball_mask\(",
        ("src/coverdyn/covering.py",),
        "a metric chain builds each level's balls in one comparison",
        "m = ball_mask(space, x, r)",
    ),
    Rule(
        "dynamics-on-indices",
        r"\bPoint\b|\.apply\(",
        ("src/coverdyn/dynamics.py", "src/coverdyn/attractor.py"),
        "the dynamics kernel sees indices, not Points",
        "y = action.apply(el, x)",
    ),
    Rule(
        "index-signatures",
        r"(:|->)\s*Point\b|\[Point\b|\.index\b",
        tuple(
            f"src/coverdyn/{m}.py"
            for m in ("proximity", "compactness", "covering", "checks", "cli", "scenarios")
        ),
        "kernel signatures take point indices; Point stays the id and coordinate "
        "record of Space.points, and list.index calls on radii pass",
        "def prox(x: Point, y: Point): pass",
        unless=r"radii\.index\(",
    ),
    Rule(
        "exhaustive-two-intermediate",
        r"range\(400\)|\brng\b",
        ("src/coverdyn/checks.py",),
        "both triangle laws are read off per-covering mask tables on every tuple, "
        "so the proximity suite draws no random numbers",
        "    rng = random.Random(0)",
        within=(r"^def proximity_suite\(", r"^def closure_criteria_suite\("),
    ),
    Rule(
        "proximity-tables",
        r"prox_fn|ProxFn|_broken_prox|by_value",
        (MODULES,),
        "the proximity laws read the per-covering point-star tables, not a prox "
        "callback, with no n x n table of collections regrouped by value",
        "def proximity_suite(family, prox_fn): pass",
    ),
    Rule(
        "size-class-dominance",
        re.escape("for k in kept)"),
        ("src/coverdyn/compactness.py",),
        "two distinct sets of one size never contain one another, so a trace is "
        "tested only against the kept traces of strictly larger sizes",
        "    if any(t & ~k == 0 for k in kept):",
    ),
    Rule(
        "two-bit-matrix-kernels",
        r"bool_products|PRODUCT_BATCH_BYTES",
        ("src",),
        "a mask picks table rows through union_rows, and a table composes with a "
        "table through one unbatched bool_product",
        "PRODUCT_BATCH_BYTES = 1 << 18",
    ),
]


def _files(root: pathlib.Path, path: str) -> list[pathlib.Path]:
    if "*" in path:
        return sorted(root.glob(path))
    top = root / path
    if top.is_dir():
        return sorted(
            p for p in top.rglob("*")
            if p.is_file() and not any(d.endswith(GENERATED) for d in p.relative_to(top).parts)
        )
    return [top]


def violations(rule: Rule, root: pathlib.Path) -> list[str]:
    """What `rule` finds under `root`, one "path:line: text" entry per hit;
    an empty list when the rule holds."""
    if rule.pattern is None:
        return [f"{path} exists" for path in rule.paths if (root / path).exists()]
    missing = [
        f"{path} names no file" for path in rule.paths
        if not any(f.exists() for f in _files(root, path))
    ]
    if missing:
        return missing
    files = [f for path in rule.paths for f in _files(root, path)]
    found, matched = [], []
    for f in files:
        rel = f.relative_to(root).as_posix()
        lines = f.read_text(errors="replace").splitlines()
        first = 0
        if rule.within:
            start, stop = (re.compile(p) for p in rule.within)
            first = next((k for k, line in enumerate(lines) if start.search(line)), len(lines))
            last = next(
                (k for k in range(first + 1, len(lines)) if stop.search(lines[k])), len(lines) - 1
            )
            lines = lines[: last + 1]
            if first == len(lines):
                found.append(f"{rel}: the range {rule.within} is empty")
        hits = [
            f"{rel}:{k + 1}: {lines[k]}"
            for k in range(first, len(lines))
            if re.search(rule.pattern, lines[k])
        ]
        if rule.unless:
            hits = [h for h in hits if not re.search(rule.unless, h)]
        if hits:
            matched.append(rel)
        if rule.only is None:
            found += hits
    if rule.only is not None and tuple(matched) != rule.only:
        found.append(f"the files that match are {matched}, not {list(rule.only)}")
    return found


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_rule_holds(rule):
    assert violations(rule, ROOT) == [], rule.reason


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("tree")
    skip = shutil.ignore_patterns(*(f"*{g}" for g in GENERATED))
    shutil.copytree(ROOT / "src", root / "src", ignore=skip)
    shutil.copy(ROOT / "README.md", root / "README.md")
    return root


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_rule_rejects_a_planted_violation(rule, tree, tmp_path):
    root = tmp_path / "tree"
    shutil.copytree(tree, root)
    assert violations(rule, root) == []
    if rule.pattern is None:
        (root / rule.paths[0]).mkdir()
    else:
        # the first file that the rule reads and may not match
        target = next(
            f for path in rule.paths for f in _files(root, path)
            if f.relative_to(root).as_posix() not in (rule.only or ())
        )
        lines = target.read_text().splitlines()
        at = len(lines)
        if rule.within:
            at = next(k for k, line in enumerate(lines) if re.search(rule.within[0], line)) + 1
        lines.insert(at, rule.planted)
        target.write_text("\n".join(lines) + "\n")
    assert violations(rule, root) != []


def test_a_range_rule_fails_when_its_range_is_gone(tmp_path):
    rule = next(r for r in RULES if r.within)
    (tmp_path / "src/coverdyn").mkdir(parents=True)
    text = (ROOT / rule.paths[0]).read_text()
    (tmp_path / rule.paths[0]).write_text(re.sub(rule.within[0], "def renamed(", text, flags=re.M))
    assert violations(rule, tmp_path) != []


def test_the_numpy_rule_fails_when_space_py_stops_importing_it(tmp_path):
    rule = next(r for r in RULES if r.only)
    shutil.copytree(ROOT / "src", tmp_path / "src")
    space = tmp_path / "src/coverdyn/space.py"
    space.write_text(re.sub(rule.pattern, "# numpy", space.read_text(), flags=re.M))
    assert violations(rule, tmp_path) != []
