"""Each job has one routine: the breadth-first search under `closure` and
`Domain.walk`, the integer test of element indices and Selmer structures
(made where a structure is made), the CLI's refusal report, int64
residue arithmetic with no object-dtype array, the unchecked `PolyX`
constructor, kept to the package's own integer results, the batteries'
shipped fixtures, read through one cache, and one read-only index array
per subset of G."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asaikit
from asaikit import cli
from asaikit.cohomology import SelmerStructure, h1, hom_module, selmer_subgroup
from asaikit.exactalg import Mat
from asaikit.fixtures import m40_fixture, ribet_fixture, s3_fixture
from asaikit.grouprep import coset_sign_character, trivial_character
from asaikit.polarization import LatticeRep, PolarizedRep, polarize, theorem_main_pipeline

SRC = Path(asaikit.__file__).parent


@pytest.fixture(scope="module")
def rib():
    return ribet_fixture()


def _delta(g):
    """The C_d part of ribet_q7_d6's H: the six elements (0, a)."""
    return [h for h in g.H if g.elements[h][0] == 0]


def scalar_layers(g, frontier, steps, seen):
    """Oracle: breadth-first layers element by element, each new a t taken
    at the first (frontier element, step) pair in row-major order."""
    seen = set(seen)
    layers = []
    while frontier:
        layer = []
        for a in frontier:
            for i, t in enumerate(steps):
                x = g.op(a, t)
                if x not in seen:
                    seen.add(x)
                    layer.append((a, x, i))
        if not layer:
            break
        layers.append(tuple(map(list, zip(*layer))))
        frontier = [x for _, x, _ in layer]
    return layers


def test_search_layers_match_the_scalar_search(rib):
    rng = np.random.default_rng(3)
    for g in (s3_fixture().group, m40_fixture().group, rib.group):
        for k in (1, 2, 3):
            steps = rng.choice(g.n, size=k, replace=False)
            seen = np.arange(g.n) == g.one
            got = [tuple(map(list, layer))
                   for layer in g._search(np.array([g.one]), steps, seen)]
            want = scalar_layers(g, [g.one], steps.tolist(), [g.one])
            assert got == want
            reached = {g.one} | {x for _, new, _ in want for x in new}
            assert set(np.flatnonzero(seen).tolist()) == reached
            assert np.array_equal(g.closure(steps), seen)


def test_element_indices_are_refused_not_truncated(rib):
    g = rib.group
    lattice = rib.rep("lattice")
    delta = _delta(g)
    assert delta == [0, 7, 14, 21, 28, 35]
    for bad in ([0, 7.5, 14, 21, 28, 35], ["0", "7", "14", "21", "28", "35"],
                [0, True, 14, 21, 28, 35]):
        with pytest.raises(ValueError, match="not inside the domain"):
            lattice.restrict(bad)
    with pytest.raises(ValueError, match="not a subgroup"):
        g.generators([0.0, 7.9, 14.2, 21, 28, 35])
    with pytest.raises(ValueError, match="not an integer"):
        g.domain_key((0, 7.0, 14, 21, 28, 35))
    # numpy integers are integers
    assert lattice.restrict(np.array(delta)).elements.tolist() == delta
    assert g.generators(np.array(delta)) == g.generators(delta)


def test_trivial_character_on_a_named_subgroup(rib):
    g = rib.group
    delta = _delta(g)
    one = trivial_character(g, delta, 7)
    one.validate()
    assert one.elements.tolist() == delta
    assert one.value(np.array(delta)).tolist() == [1] * len(delta)
    assert trivial_character(g, "H", 7) == trivial_character(g, list(g.H), 7)


def test_a_stored_domain_key_is_not_read_back_for_a_float_tuple():
    g = ribet_fixture().group  # fresh, then the Domain on delta is made
    delta = tuple(_delta(g))
    key = g.domain_key(delta)
    g.domain(key)
    assert key in g._domains and g.domain_key(delta) == key
    for bad in ((0, 7.0, 14, 21, 28, 35), (0, True, 14, 21, 28, 35)):
        with pytest.raises(ValueError, match="not an integer"):
            g.domain_key(bad)
    assert g.domain_key(tuple(np.array(delta))) == key  # numpy ints are ints


@pytest.mark.parametrize("form", [list, tuple, set, lambda a: (x for x in a),
                                  lambda a: a.astype(np.int32), lambda a: a],
                         ids=["list", "tuple", "set", "generator", "int32", "int64"])
def test_every_form_of_a_subset_gives_one_domain_key(form):
    g = s3_fixture().group  # fresh: no stored tuple key is read back
    assert g.domain_key(form(g.H)) == "H"
    assert g.domain_key(form(np.arange(g.n))) == "G"
    key = g.domain_key(form(np.array([g.ctilde, g.one])))
    assert key == (g.one, g.ctilde) and all(type(e) is int for e in key)


def test_subsets_of_the_group_are_read_only_index_arrays():
    fix = ribet_fixture(101, d=4, alpha=100, chi_val=10, precision=3)
    g = fix.group
    lattice = fix.rep("lattice")
    delta = [h for h in g.H.tolist() if g.elements[h][0] == 0]
    theorem_main_pipeline(LatticeRep(lattice, fix.rep("chi"), fix.rep("chi_inv")),
                          coset_sign_character(g, lattice.mod),
                          selmer=SelmerStructure([(delta, "zero")]))
    assert g.n == 808 and list(g._domains) == ["G", "H", tuple(delta)]

    def long_containers(obj):
        return [name for name, v in vars(obj).items()
                if isinstance(v, (tuple, list, set, frozenset)) and len(v) >= len(g.H)]

    # the labels are the one per-element Python container
    assert long_containers(g) == ["elements"]
    assert [long_containers(dom) for dom in g._domains.values()] == [[], [], []]
    for a in [g.H, g.h_mask] + [dom.elements for dom in g._domains.values()]:
        assert isinstance(a, np.ndarray) and not a.flags.writeable
    assert "H_set" not in vars(g)


def subset_copy_reads(path):
    """(top-level function, Class.method, class or <module>, line) of each
    read of `.H_set` or of an `.array` other than `np.array` in one source
    file: a subset of G is read as its one index array or the H mask."""
    def copy(n):
        return isinstance(n, ast.Attribute) and (n.attr == "H_set" or n.attr == "array" and not (
            isinstance(n.value, ast.Name) and n.value.id == "np"))

    return node_uses(path, copy)


def test_the_package_reads_no_copy_of_a_subset():
    assert {p.name: subset_copy_reads(p) for p in sorted(SRC.glob("*.py"))
            if subset_copy_reads(p)} == {}


def test_the_subset_copy_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def a(g):\n    return g.one in g.H_set\n"
        "def b(rep):\n    return rep.dom.array, np.array(rep.elements)\n"
        "class C:\n    def d(self):\n        return self.group.h_mask[self.array]\n")
    assert subset_copy_reads(path) == [("a", 2), ("b", 4), ("C.d", 7)]


def test_the_cli_never_imports_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma, about 1 MB of resident memory
    reports = [str(tmp_path / name) for name in ("v.json", "p.json")]
    code = ("import sys\nfrom asaikit import cli\n"
            f"codes = [cli.main(['verify-identities', '--seed', '0', '--report', {reports[0]!r}]),\n"
            f"         cli.main(['pipeline', '--report', {reports[1]!r}])]\n"
            "print(codes, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0] False"


@pytest.mark.parametrize("conditions", [
    [((0, 1), "bogus")],
    [((0, 1.5), "zero")],
    [((0, 1), [[True]])],
    [((0, 7.5, 14, 21, 28, 35), "zero")],
    [((0, 1), [[1.0]])],
    [((0, 1), ["01"])],
    [((0, 1), 5)],
    [("01", "zero")],
], ids=["bogus-name", "float-element", "bool-entry", "float-delta", "float-entry",
        "str-vector", "int-condition", "str-subgroup"])
def test_selmer_structure_is_checked_at_construction(conditions):
    with pytest.raises(ValueError):
        SelmerStructure(conditions)


def test_selmer_structure_takes_lists_tuples_and_numpy_integers(rib):
    g = rib.group
    data = h1(hom_module(rib.rep("chi"), rib.rep("chi_inv")))
    delta = _delta(g)
    as_lists = SelmerStructure([(delta, "zero"), (list(range(7)), [[1]])])
    as_tuples = SelmerStructure([(tuple(np.array(delta)), "zero"),
                                 (tuple(range(7)), ((np.int64(8),),))])
    assert as_tuples.to_json() == [
        {"subgroup": delta, "local_condition": "zero"},
        {"subgroup": list(range(7)), "local_condition": [[8]]},
    ]
    assert json.loads(json.dumps(as_tuples.to_json())) == as_tuples.to_json()
    # 8 = 1 mod 7: the same local condition
    assert np.array_equal(selmer_subgroup(data, as_lists), selmer_subgroup(data, as_tuples))


def test_refusal_reports_share_one_writer(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert cli.refuse(str(report), {"command": "pipeline", "fixture": "x", "class": None},
                      "bad input") == 1
    assert report.read_text() == ('{"class":null,"command":"pipeline","error":"bad input",'
                                  '"fixture":"x","ok":false}\n')
    assert capsys.readouterr().err == "pipeline: bad input\n"
    assert cli.main(["lfunc", "--primes", "24..28", "--report", str(report)]) == 1
    assert json.loads(report.read_text()) == {
        "command": "lfunc", "error": "no prime in the range 24..28", "ok": False}
    assert capsys.readouterr().err == "lfunc: no prime in the range 24..28\n"


def object_dtype_hits(path):
    """Lines of `.astype(object)` or `dtype=object` in one source file."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "astype" and node.args
                    and isinstance(node.args[0], ast.Name) and node.args[0].id == "object"):
                hits.append(node.lineno)
            hits += [node.lineno for kw in node.keywords if kw.arg == "dtype"
                     and isinstance(kw.value, ast.Name) and kw.value.id == "object"]
    return hits


def test_the_package_has_no_object_arrays():
    files = sorted(SRC.glob("*.py"))
    assert files
    assert {p.name: object_dtype_hits(p) for p in files if object_dtype_hits(p)} == {}


def test_the_object_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("a = x.astype(object)\nb = np.array(y, dtype=object)\n"
                    "c = x.astype(np.int64)\nd = np.zeros(3, dtype=int)\n")
    assert object_dtype_hits(path) == [1, 2]


def test_witness_check_is_exact_near_the_int64_bound():
    # mod 1249^3, about 1.9e9: a product of two residues is near 2^62
    q = 1249
    fix = ribet_fixture(q, d=4, alpha=585 * 585 % q, chi_val=585, precision=3)
    r = fix.rep("lattice").restrict_to_H()
    m = r.mod
    psi = coset_sign_character(fix.group, m)
    a = polarize(r, psi).witness.a
    PolarizedRep(r, psi, Mat(a * (m - 2) % m, m), 1)
    with pytest.raises(ValueError, match="witness identity fails"):
        PolarizedRep(r, psi, Mat(np.array([[m - 1, 1], [1, 0]]), m), 1)


def plain_hom_kernel_calls(path):
    """(top-level function or Class.method, line) of each call of
    `kernel_gens` or `kernel_mod` directly on a `hom_system(...)` call, or
    on a name that the same function binds to one."""
    def called(node, names):
        f = getattr(node, "func", None)
        return isinstance(node, ast.Call) and (
            isinstance(f, ast.Name) and f.id in names
            or isinstance(f, ast.Attribute) and f.attr in names)

    def scopes(body, prefix=""):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from scopes(node.body, f"{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node

    hits = []
    for name, func in scopes(ast.parse(path.read_text()).body):
        nodes = list(ast.walk(func))
        systems = {t.id for n in nodes if isinstance(n, ast.Assign)
                   and called(n.value, {"hom_system"})
                   for t in n.targets if isinstance(t, ast.Name)}
        for n in nodes:
            if called(n, {"kernel_gens", "kernel_mod"}) and n.args and (
                    called(n.args[0], {"hom_system"})
                    or isinstance(n.args[0], ast.Name) and n.args[0].id in systems):
                hits.append((name, n.lineno))
    return hits


def test_the_plain_hom_kernel_has_one_route():
    hits = {p.name: plain_hom_kernel_calls(p) for p in sorted(SRC.glob("*.py"))}
    hits = {name: h for name, h in hits.items() if h}
    assert [(name, f) for name, h in hits.items() for f, _ in h] == [
        ("grouprep.py", "hom_kernel")]


def test_the_hom_kernel_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "def a(r):\n    return kernel_gens(hom_system(r, r), r.mod)\n"
        "class B:\n    def c(self, r):\n        sys = hom_system(r, r)\n"
        "        return exactalg.kernel_mod(sys, 7)\n"
        "def d(r):\n    sys = hom_system(r, r)\n"
        "    return kernel_mod(np.vstack([sys, rows]), 7), kernel_gens(other, 7)\n")
    assert plain_hom_kernel_calls(path) == [("a", 2), ("B.c", 6)]


def symmetry_rows_uses(path):
    """(top-level function, Class.method, class or <module>, line) of each
    use of `symmetry_rows`: a call by name or attribute, nested or not, or
    a reference that binds it to be called later."""
    return name_uses(path, "symmetry_rows")


def name_uses(path, name):
    """(top-level function, Class.method, class or <module>, line) of each
    use of `name` in one source file: a Name or an attribute `.name`."""
    return node_uses(path, lambda n: isinstance(n, ast.Name) and n.id == name
                     or isinstance(n, ast.Attribute) and n.attr == name)


def node_uses(path, match):
    """(top-level function, Class.method, class or <module>, line) of each
    node of one source file that `match` accepts."""
    def uses(node):
        return [n.lineno for n in ast.walk(node) if match(n)]

    def scopes(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from scopes(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = node.name if owner == "<module>" else f"{owner}.{node.name}"
                yield from ((qual, line) for line in uses(node))
            else:
                yield from ((owner, line) for line in uses(node))

    return sorted(scopes(ast.parse(path.read_text()).body, "<module>"),
                  key=lambda hit: hit[1])


def test_symmetry_rows_are_appended_only_by_hom_kernel():
    hits = [(p.name, f) for p in sorted(SRC.glob("*.py")) for f, _ in symmetry_rows_uses(p)]
    assert hits == [("grouprep.py", "hom_kernel")]


def test_the_symmetry_rows_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from grouprep import symmetry_rows\n"
        "ROWS = symmetry_rows(2, 7, False)\n"
        "def a(d):\n    return grouprep.symmetry_rows(d, 7, True)\n"
        "class B:\n    EXTRA = symmetry_rows(3, 7, True)\n"
        "    def c(self, d):\n        def inner():\n"
        "            return symmetry_rows(d, 7, False)\n        return inner()\n"
        "def e(d):\n    f = symmetry_rows\n    return f(d, 7, True)\n"
        "def symmetry_rows_free(sys):\n    return kernel_gens(sys, 7)\n")
    assert symmetry_rows_uses(path) == [
        ("<module>", 2), ("a", 4), ("B", 6), ("B.c", 9), ("e", 12)]


def unchecked_polyx_uses(path):
    """Each use of the unchecked constructor `PolyX._of_ints`: a call by
    name or attribute, nested or not, or a reference that binds it to be
    called later."""
    return name_uses(path, "_of_ints")


def test_only_exactalg_and_lfunc_build_unchecked_polynomials():
    # each use builds from ints the package computed itself: a product, a
    # charpoly of a Frobenius block, a twist or a closed form of a checked
    # SatakeParam, never a caller's coefficient (cli and batteries reach
    # PolyX only through these)
    hits = [(p.name, f) for p in sorted(SRC.glob("*.py")) for f, _ in unchecked_polyx_uses(p)]
    assert hits == [("exactalg.py", "PolyX.__mul__"),
                    ("lfunc.py", "charpoly_reciprocal"),
                    ("lfunc.py", "_twist"),
                    ("lfunc.py", "euler_factor"),
                    ("lfunc.py", "verify_lambda2_batch"),
                    ("lfunc.py", "verify_std_decomposition_batch")]


def test_the_unchecked_polyx_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from exactalg import PolyX\n"
        "ONE = PolyX._of_ints([1])\n"
        "def a(cs):\n    return exactalg.PolyX._of_ints(cs)\n"
        "class B:\n    LINE = PolyX._of_ints([1, -1])\n"
        "    def c(self, cs):\n        def inner():\n"
        "            return PolyX._of_ints(cs)\n        return inner()\n"
        "def e(cs):\n    f = PolyX._of_ints\n    return f(cs)\n"
        "def g(cs):\n    return PolyX(cs)\n")
    assert unchecked_polyx_uses(path) == [
        ("<module>", 2), ("a", 4), ("B", 6), ("B.c", 9), ("e", 12)]


def fixture_builder_uses(path):
    """(top-level function, Class.method, class or <module>, line) of each
    import, call or reference of a `*_fixture` builder in one source file."""
    def builder(name):
        return name.endswith("_fixture")

    return node_uses(path, lambda n: isinstance(n, ast.Name) and builder(n.id)
                     or isinstance(n, ast.Attribute) and builder(n.attr)
                     or isinstance(n, ast.ImportFrom) and any(builder(a.name) for a in n.names))


def test_the_batteries_read_shipped_fixtures_only_through_their_cache():
    # each shipped fixture comes through `batteries._shipped`, built once
    assert fixture_builder_uses(SRC / "batteries.py") == []


def test_the_fixture_builder_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from fixtures import load_shipped, m40_fixture\n"
        "FX = ribet_fixture()\n"
        "def a():\n    return fixtures.f20_fixture(41)\n"
        "class B:\n    FX = coh294_fixture()\n"
        "    def c(self):\n        def inner():\n"
        "            return m40_fixture()\n        return inner()\n"
        "def e():\n    f = fixtures.c15_fixture\n    return f()\n"
        "def g():\n    from fixtures import s3_fixture as build\n    return build()\n"
        "def h():\n    return load_shipped('m40_q11'), shipped_fixture_builders()\n")
    assert fixture_builder_uses(path) == [
        ("<module>", 1), ("<module>", 2), ("a", 4), ("B", 6), ("B.c", 9), ("e", 12),
        ("g", 15)]
