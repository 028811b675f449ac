"""Seeded mutations of fixture JSON and Selmer JSON (a key deleted, a type
swapped, an integer perturbed): loading and using them may succeed or raise
ValueError, and nothing else."""

import copy
import json

import numpy as np
import pytest

from asaikit.cohomology import SelmerStructure, h1, hom_module, selmer_subgroup
from asaikit.fixtures import DATA_DIR, Fixture, ribet_fixture, s3_fixture

SWAPS = [None, "x", 5, -1, 2**64, 1.5, True, [], {}, [[1]]]
SHIFTS = [-1, 1, 6, 2**63]
TRIALS = 300


def mutate(obj, rng):
    """Copy of obj with one entry, reached by a random walk from the root,
    deleted, replaced by a value of another type, or shifted if an int."""
    out = copy.deepcopy(obj)
    parent, node = None, out
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
        key = list(node)[rng.integers(len(node))] if isinstance(node, dict) \
            else int(rng.integers(len(node)))
        parent, node = node, node[key]
    kind = int(rng.integers(3))
    if kind == 0:
        del parent[key]
    elif kind == 2 and type(node) is int:
        parent[key] = node + SHIFTS[rng.integers(len(SHIFTS))]
    else:
        parent[key] = SWAPS[rng.integers(len(SWAPS))]
    return out


def succeeds_or_value_error(fn):
    try:
        fn()
    except ValueError:
        return False
    return True


def test_mutated_fixture_json_succeeds_or_raises_value_error():
    base = s3_fixture().to_json()
    rng = np.random.default_rng(20)
    outcomes = [succeeds_or_value_error(lambda: Fixture.from_json(mutate(base, rng)))
                for _ in range(TRIALS)]
    assert 0 < sum(outcomes) < TRIALS  # both outcomes occur


@pytest.mark.parametrize("base", [
    json.loads((DATA_DIR / "ribet_q7_d6.selmer.json").read_text()),
    [{"subgroup": list(range(7)), "local_condition": [[1]]},
     {"subgroup": [0, 7, 14, 21, 28, 35], "local_condition": "zero"}],
], ids=["shipped", "vector-and-zero"])
def test_mutated_selmer_json_succeeds_or_raises_value_error(base):
    rib = ribet_fixture()
    data = h1(hom_module(rib.rep("chi"), rib.rep("chi_inv")))
    rng = np.random.default_rng(21)

    def run():
        return selmer_subgroup(data, SelmerStructure.from_json(mutate(base, rng)))

    outcomes = [succeeds_or_value_error(run) for _ in range(TRIALS)]
    assert 0 < sum(outcomes) < TRIALS


def _replaced(obj, path, value):
    out = copy.deepcopy(obj)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]])
    return out


# Each value equals the correct entry after int() or numpy's int64 cast, so
# only a type check can refuse it.
@pytest.mark.parametrize("path, value", [
    (("mul", 0, 1), lambda x: x + 0.7),
    (("mul", 0, 1), bool),
    (("mul", 0, 1), str),
    (("H", 0), lambda x: x + 0.2),
    (("ctilde",), float),
    (("reps", 0, "images", 0, 0), lambda x: x + 0.9),
    (("reps", 0, "images", 0, 0), str),
    (("reps", 0, "modulus"), lambda x: x + 0.5),
    (("reps", 0, "dim"), bool),
    (("reps", 0, "domain"), lambda _: [0.5, 1.5, 2.5]),  # H = (0, 1, 2)
], ids=["mul-float", "mul-bool", "mul-str", "H-float", "ctilde-float", "image-float",
        "image-str", "modulus-float", "dim-bool", "domain-float"])
def test_fixture_json_takes_integers_only(path, value):
    base = s3_fixture().to_json()
    Fixture.from_json(base)
    with pytest.raises(ValueError, match="malformed fixture"):
        Fixture.from_json(_replaced(base, path, value))


@pytest.mark.parametrize("condition", [
    {"subgroup": [0.9, 1.2, 2], "local_condition": "zero"},
    {"subgroup": ["0", "1"], "local_condition": "zero"},
    {"subgroup": [0, True], "local_condition": "zero"},
    {"subgroup": True, "local_condition": "zero"},
    {"subgroup": list(range(7)), "local_condition": [[True]]},
    {"subgroup": list(range(7)), "local_condition": [[1.0]]},
], ids=["float", "str", "bool-entry", "bool", "bool-vector", "float-vector"])
def test_selmer_json_takes_integers_only(condition):
    with pytest.raises(ValueError):
        SelmerStructure.from_json([condition])
