"""Design rules of the package, each one data row: a pattern that must not
occur, the paths it is searched in and the reason it holds.

A path is a file, a directory (every file under it, as `grep -r` reads it,
except byte-code caches and build metadata) or a glob. A pattern is searched
line by line, like `grep -E`. Each rule is checked on the repository and
must fail on a violation planted in a temporary copy.

One more rule reads the syntax trees of the package: it holds only what it
reads (`unread` below). It is checked on `src/coverdyn` and must fail on
small fixture packages, each clean but for one planted violation.

The line rule, that every line of the package runs under a test or is
argued for, runs the whole suite under a tracer (`tests/line_coverage.py`),
so it is a CI step of its own; its collector and its allowlist are checked
here.
"""

import ast
import collections
import importlib.util
import pathlib
import re
import shutil
from dataclasses import dataclass
from typing import Optional

import pytest

import line_coverage

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
    # reported lines inside any of these ranges, read as `within`, pass
    unless_within: tuple[tuple[str, str], ...] = ()


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
        r"bool_product|float32|matmul",
        ("src", "README.md"),
        "union_rows is the one composition: a mask picks table rows through it, "
        "and a table composes with a table row by row through it; "
        "transpose_masks is the one transpose. No float matrix product is kept "
        "beside them",
        "    lhs = np.unpackbits(packed, axis=1).astype(np.float32)",
    ),
    Rule(
        "attraction-reads-one-orbit",
        r"F\.levels\(\)",
        ("src/coverdyn/dynamics.py",),
        "the level orbits nest, so the deepest orbit's closure is a limit set, "
        "and a property that passes to subsets holds at some level's orbit exactly "
        "when it holds at the deepest: attraction, absorption and the "
        "eventually-bounded and limit-compact rows test that orbit alone. The "
        "level listings nest too, so the deepest listing decides the hypothesis "
        "checks. Only the tail images of asymptotic compactness read levels",
        "    for k in F.levels():",
        unless_within=(
            (r"def clusterless_tails\(", r'first_failure\("asymptotically_compact"'),
        ),
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


def _range(lines: list[str], span: tuple[str, str]) -> tuple[int, int]:
    """(first, last): the index of the line matching span[0] and of the next
    line matching span[1], or of the last line; first is len(lines) when no
    line matches span[0]."""
    start, stop = (re.compile(p) for p in span)
    first = next((k for k, line in enumerate(lines) if start.search(line)), len(lines))
    last = next(
        (k for k in range(first + 1, len(lines)) if stop.search(lines[k])), len(lines) - 1
    )
    return first, last


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
            first, last = _range(lines, rule.within)
            lines = lines[: last + 1]
            if first == len(lines):
                found.append(f"{rel}: the range {rule.within} is empty")
        allowed = set()
        for span in rule.unless_within:
            a, b = _range(lines, span)
            allowed.update(range(a, b + 1))
        hits = [
            f"{rel}:{k + 1}: {lines[k]}"
            for k in range(first, len(lines))
            if k not in allowed and re.search(rule.pattern, lines[k])
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


@pytest.mark.parametrize("anchor, held", [
    (r"^    def dropped_coverings\(", False),
    (r"^def check_dissipativity\(", False),
    (r"^def _limit_set\(", False),
    (r"^def attracts\(", False),
    (r"^def check_hypotheses\(", False),
    (r"^    def clusterless_tails\(", True),
], ids=["dropped_coverings", "dissipativity", "limit_set", "attracts", "hypotheses", "tails"])
def test_the_orbit_rule_allows_level_scans_in_the_tails_alone(
    anchor, held, tree, tmp_path
):
    rule = next(r for r in RULES if r.name == "attraction-reads-one-orbit")
    shutil.copytree(tree, tmp_path / "tree")
    target = tmp_path / "tree" / rule.paths[0]
    lines = target.read_text().splitlines()
    at = next(k for k, line in enumerate(lines) if re.search(anchor, line)) + 1
    lines.insert(at, rule.planted)
    target.write_text("\n".join(lines) + "\n")
    assert (violations(rule, tmp_path / "tree") == []) == held


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


# names the package keeps although nothing in it reads them, with the reason
ALLOW = {
    "CoverCollection.finite": "perfbench/spans.py traces it by this name",
    "scenario_to_config": "the README documents it as the config round trip",
    "Point.index": "perfbench/run.py _battery_setup builds Point(pid=..., index=i)",
    "NestedChainReport.measure_trace": "the certificate behind hypothesis_met (ROADMAP item 2)",
    "scenario_iterated_contractions": "get_scenario(name, **overrides) passes its parameters",
    "scenario_composition": "get_scenario(name, **overrides) passes its parameters",
    "scenario_exp_decay": "get_scenario(name, **overrides) passes its parameters",
    "scenario_decay_grid": "get_scenario(name, **overrides) passes its parameters",
    "main(argv)": "the command-line entry point reads sys.argv when argv is None",
    "coverable_within(node_budget)": "the budget seam of the exact cover search (ROADMAP item 2)",
    "refines": "perfbench/spans.py traces it by this name",
    "double_refines": "perfbench/spans.py traces it by this name",
}


def documented(readme: str) -> set[str]:
    """The names that the ```python blocks of a README import."""
    return {
        alias.name
        for block in re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
        for node in ast.walk(ast.parse(block))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def unread(package: pathlib.Path, allow: dict[str, str], readme: str) -> list[str]:
    """What the package defines and nothing in it reads, one entry each; an
    empty list when it holds only what it reads. Test-only helpers, fields
    and knobs live in tests/. An export of `__init__.py` is read only when
    a ```python block of `readme` imports it: that is the documented API.

    - Every top-level function and class, and every public method of a
      top-level class, is read elsewhere in the package (a load, or an
      import outside `__init__.py`) or is a documented export.
    - Every dataclass field is read there (an attribute load or a constant
      getattr name).
    - Every dataclass field default is used there: some constructor call
      leaves the field out, or the default is read as Cls.field.
    - Every defaulted parameter of a function that is not a documented
      export is passed by some call there, by keyword or by position.
    - Every name in `allow` is defined.
    """
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    reads, attrs, calls, class_reads = {}, set(), {}, set()
    for fname, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, set()).add(id(node))
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name):
                    class_reads.add((node.value.id, node.attr))
            elif isinstance(node, ast.alias) and fname != "__init__.py":
                reads.setdefault(node.name, set()).add(id(node))
            elif isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "getattr" and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
                    attrs.add(node.args[1].value)
                calls.setdefault(name, []).append(node)
    exported = documented(readme) & {
        a.name for node in ast.walk(trees["__init__.py"]) if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def is_dataclass(cls):
        return any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in cls.decorator_list
        )

    def passed(fn, offset, pname, pos):
        # a method called as obj.m(...) gets self from obj
        for call in calls.get(fn.name, []):
            shift = offset if isinstance(call.func, ast.Attribute) else 0
            if any(kw.arg == pname for kw in call.keywords) or (pos is not None and len(call.args) > pos - shift):
                return True
        return False

    seen, found = set(), []
    for fname, tree in trees.items():
        for top in (n for n in tree.body if isinstance(n, defs)):
            named = [(top.name, top)]
            if isinstance(top, ast.ClassDef):
                named += [
                    (f"{top.name}.{m.name}", m) for m in top.body
                    if isinstance(m, defs) and not m.name.startswith("_")
                ]
            for qual, node in named:
                seen.add(qual)
                inside = {id(n) for n in ast.walk(node)}
                if not (reads.get(node.name, set()) - inside or node.name in exported or qual in allow):
                    found.append(f"{fname}: {qual}")
            if isinstance(top, ast.ClassDef) and is_dataclass(top):
                fields = [st for st in top.body if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]
                for pos, st in enumerate(fields):
                    qual = f"{top.name}.{st.target.id}"
                    seen.add(qual)
                    if not (st.target.id in attrs or qual in allow):
                        found.append(f"{fname}: field {qual} is never read")
                    # a default is used when some call Cls(...) leaves the
                    # field out, or when Cls.field is read
                    if st.value is not None and not (
                        qual in allow
                        or (top.name, st.target.id) in class_reads
                        or any(
                            len(call.args) <= pos
                            and all(kw.arg != st.target.id for kw in call.keywords)
                            for call in calls.get(top.name, [])
                        )
                    ):
                        found.append(f"{fname}: the default of field {qual} is never used")
            owners = [(top, 0)] if isinstance(top, funcs) else []
            if isinstance(top, ast.ClassDef) and top.name not in exported:
                owners += [(m, 1) for m in top.body if isinstance(m, funcs)]
            for fn, offset in owners:
                if fn.name in exported:
                    continue
                seen.add(fn.name)
                a = fn.args
                params = a.posonlyargs + a.args
                defaulted = [(p.arg, i) for i, p in enumerate(params) if i >= len(params) - len(a.defaults)]
                defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                for pname, pos in defaulted:
                    qual = f"{fn.name}({pname})"
                    seen.add(qual)
                    if not (fn.name in allow or qual in allow or passed(fn, offset, pname, pos)):
                        found.append(f"{fname}: {qual} is never passed")
    return found + [f"allowlist: {q} is not defined" for q in sorted(set(allow) - seen)]


def test_the_package_holds_only_what_it_reads():
    assert unread(ROOT / "src/coverdyn", ALLOW, (ROOT / "README.md").read_text()) == []


# a package that reads all it defines: the fixtures below each plant one
# violation in it
CLEAN = {
    "__init__.py": "from .core import build\n",
    "core.py": """\
from dataclasses import dataclass


@dataclass(frozen=True)
class Box:
    size: int
    label: str = "box"


def build(n):
    return describe(Box(n), scale=2)


def describe(box, scale=1):
    return box.size * scale, box.label
""",
}
# the README of the clean package: its sketch imports the one export
README = """\
`build(n)` makes a box:

```python
from pkg import build
```
"""

PLANTED = {
    "unread-function": (
        ("", "\n\ndef orphan():\n    return 0\n"),
        "core.py: orphan",
    ),
    "unread-field": (
        ('    label: str = "box"\n', '    label: str = "box"\n    weight: int = 0\n'),
        "core.py: field Box.weight is never read",
    ),
    "unused-default": (
        ("describe(Box(n), scale=2)", 'describe(Box(n, "crate"), scale=2)'),
        "core.py: the default of field Box.label is never used",
    ),
    "unpassed-parameter": (
        ("describe(Box(n), scale=2)", "describe(Box(n))"),
        "core.py: describe(scale) is never passed",
    ),
}


def _package(root: pathlib.Path, files: dict[str, str]) -> pathlib.Path:
    root.mkdir()
    for name, text in files.items():
        (root / name).write_text(text)
    return root


def test_the_clean_fixture_package_holds_only_what_it_reads(tmp_path):
    assert unread(_package(tmp_path / "pkg", CLEAN), {}, README) == []


@pytest.mark.parametrize("case", sorted(PLANTED))
def test_the_read_rule_rejects_a_planted_violation(case, tmp_path):
    (old, new), finding = PLANTED[case]
    core = CLEAN["core.py"]
    planted = core + new if old == "" else core.replace(old, new)
    assert planted != core
    assert unread(_package(tmp_path / "pkg", {**CLEAN, "core.py": planted}), {}, README) == [finding]


@pytest.mark.parametrize("readme", [
    "",
    # named in prose and in a shell block, but imported by no python block
    README.replace("```python", "```sh"),
    README.replace("from pkg import build", "from pkg.core import describe"),
], ids=["no-readme", "shell-block", "other-import"])
def test_the_read_rule_rejects_an_export_that_the_readme_does_not_import(readme, tmp_path):
    # `build` is exported by __init__.py and read by nothing else
    package = _package(tmp_path / "pkg", CLEAN)
    assert unread(package, {}, readme) == ["core.py: build"]


def test_the_read_rule_rejects_an_undefined_allowlist_entry(tmp_path):
    package = _package(tmp_path / "pkg", CLEAN)
    assert unread(package, {"build": "exported anyway"}, "") == []
    assert unread(package, {"ghost": "no such name"}, README) == ["allowlist: ghost is not defined"]


def test_line_coverage_reports_the_branch_that_did_not_run(tmp_path):
    (tmp_path / "fixture.py").write_text(
        "def sign(x):\n"
        "    if x < 0:\n"
        "        return 'negative'\n"
        "    return 'nonnegative'\n"
    )

    def run():
        spec = importlib.util.spec_from_file_location("fixture", tmp_path / "fixture.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.sign(1) == "nonnegative"

    missed = line_coverage.uncovered(line_coverage.collect(run, root=tmp_path), root=tmp_path)
    assert missed == [("fixture.py", 3, "return 'negative'")]
    allow = [("fixture.py", "return 'negative'", "planted")]
    assert line_coverage.unallowed(missed, allow) == []
    assert line_coverage.unallowed(missed, []) == ["fixture.py:3: return 'negative'"]
    assert line_coverage.unallowed(missed, allow * 2) == [
        "allowlist: fixture.py: \"return 'negative'\" runs under a test or is gone"
    ]


def test_each_coverage_allowance_names_an_executable_line():
    lines = collections.Counter()
    for path in sorted(line_coverage.PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        lines.update((path.name, text[n - 1].strip()) for n in line_coverage.executable_lines(path))
    allowed = collections.Counter((f, t) for f, t, _ in line_coverage.COVERAGE_ALLOW)
    assert {key: k for key, k in allowed.items() if lines[key] < k} == {}
