import random

import pytest

from coverdyn.checks import (
    boundedness_suite,
    closure_criteria_suite,
    measure_suite,
    nested_chain_suite,
    proximity_suite,
    tiny_topology_battery,
)
from coverdyn.covering import metric_chain_family
from coverdyn.proximity import CoverCollection, prox
from coverdyn.space import line_grid


@pytest.fixture(scope="module")
def fam():
    return metric_chain_family(line_grid(0.0, 1.0, 31), 2.0, 4)


def test_proximity_suite_green(fam):
    results = proximity_suite(fam, resolving=True)
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def broken(x, y, family):
    v = prox(x, y, family)
    if x.index < y.index:
        return CoverCollection(family, v.mask >> 1)
    return v


def test_proximity_suite_catches_broken_symmetry(fam):
    results = proximity_suite(fam, prox_fn=broken, resolving=True)
    by_name = {r.name: r for r in results}
    assert not by_name["prox_symmetry"].passed
    assert by_name["prox_symmetry"].witness


def test_exhaustive_triangle_check_reads_the_injected_prox():
    grid_fam = metric_chain_family(line_grid(0.0, 1.0, 101), 2.0, 6)
    results = proximity_suite(grid_fam, prox_fn=broken, resolving=True)
    triangle = {r.name: r for r in results}["prox_triangle_1_intermediate"]
    assert not triangle.passed
    assert triangle.witness == "(0),(0.99) via (0.01)"


def test_closure_and_boundedness_suites_green(fam):
    rng = random.Random(0)
    for r in closure_criteria_suite(fam, rng=rng, trials=40):
        assert r.passed, r
    for r in boundedness_suite(fam, rng=rng, trials=40):
        assert r.passed, r


def test_measure_suite_green(fam):
    for r in measure_suite(fam, cap=6, rng=random.Random(1), trials=60):
        assert r.passed, r


def test_nested_chain_suite_counts(fam):
    results = nested_chain_suite(
        fam, cap=8, rng=random.Random(2), positives=20, negatives=20
    )
    assert all(r.passed for r in results), results


def test_tiny_topology_battery_green():
    results = tiny_topology_battery(random.Random(3))
    assert results
    assert all(r.passed for r in results), [r for r in results if not r.passed]
