"""The package computes exactly: no floating-point or complex constant and
no float type, Fraction or sqrt appears anywhere in its source."""

import ast
from pathlib import Path

import asaikit

SRC = Path(asaikit.__file__).parent

# the battery sampler's draw weights pick which cases run; they never enter
# a computed answer, and the verify-identities report pins depend on them
ALLOWED = {("fixtures.py", 'kind = rng.choice(["dihedral", "metacyclic", "abelian"], '
                           "p=[0.4, 0.4, 0.2])")}


def _banned(name):
    return name.startswith("float") or name in ("Fraction", "sqrt")


def float_hits(path):
    """(line, what) for every floating-point construct in one source file."""
    source = path.read_text()
    lines = source.splitlines()
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = repr(node.value)
        elif isinstance(node, ast.Name) and _banned(node.id):
            what = node.id
        elif isinstance(node, ast.Attribute) and _banned(node.attr):
            what = node.attr
        elif isinstance(node, ast.alias) and _banned(node.name.split(".")[-1]):
            what = node.name
        else:
            continue
        if (path.name, lines[node.lineno - 1].strip()) not in ALLOWED:
            hits.append((node.lineno, what))
    return hits


def test_the_package_has_no_floating_point():
    files = sorted(SRC.glob("*.py"))
    assert files
    hits = {f"{p.name}:{line}": what for p in files for line, what in float_hits(p)}
    assert not hits


def test_the_guard_sees_each_banned_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from fractions import Fraction\nimport math\n"
                    "a = 0.5\nb = 2j\nc = np.float64(1)\nd = float(3)\n"
                    "e = math.sqrt(4)\nf = math.isqrt(4)\n")
    assert [line for line, _ in float_hits(path)] == [1, 3, 4, 5, 6, 7]
