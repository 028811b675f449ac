"""Shipped group/representation fixtures and their JSON (de)serialization.

Every shipped group is V x| A, V = (Z/m)^k, with A abelian acting on V by
scalars, and comes from one constructor, `semidirect_group(m, k, orders,
scalars)`.  The families, as (m, k, orders, scalars):
  * metacyclic pairs  C_m x| C_d > C_m x| C_{d/2}:  (m, 1, (d,), (a,))
    - d = 2: the dihedral pairs C_m < D_m (a = m - 1) and the abelian +
      involution pairs C_m x| C_2 -- character-level identities, induced
      2-dim reps with an involutive coset representative (s3, c15 and the
      battery sampler)
    - d = 4 or 8, m = p prime: 2-dim dihedral-type reps (f20, m40); the
      order-40 cover has trivial-determinant reps, so its induced 4-dim rep
      carries the two invariant wedge lines and the +-1/-1 symplectic pair
  * affine pipeline groups  V x| (C_d x C_2), V = Z/q^j:
    (q^j, 1, (d, 2), (alpha, -1)) -- the only desk-scale shape whose group
    order is divisible by q, so H^1 is nonzero and lattice extensions
    exist; used for the Selmer pipeline (ribet, ribet_v0)
  * plane pipeline groups  F_q^2 x| (C_d x C_2):  (q, 2, (d, 2), (alpha, -1))
    -- the 294-element group with a 2-dim triangular rep for the cohomology
    batteries (nonzero H^1 with a 4-dim coefficient module; coh294)

`group_from_labels` stays the generic builder for a group given by labels
and a Python product; no shipped group uses it.

Fixtures are built here, from their builders only; JSON (`Fixture.save`,
`Fixture.load`) is the format for user-supplied fixtures.  A built group
keeps its closed-form law and no table; `Fixture.to_json` writes the dense
table, built from the law as it is written.  Every fixture is
validated when built or loaded, exactly: the group axioms (a loaded table by
Light's test, a built one by `semidirect_group`'s certificate), the subgroup
index, and each representation, checked on generators (Light's test).
The builders make their image stacks from the elements' coordinate arrays,
read off the element indices; no builder looks a label up.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .exactalg import as_index, inverse_mod
from .grouprep import FiniteGroup, Rep, make_character

DATA_DIR = Path(__file__).parent / "data"


def primitive_root(q):
    for g in range(2, q):
        seen = set()
        x = 1
        for _ in range(q - 1):
            x = x * g % q
            seen.add(x)
        if len(seen) == q - 1:
            return g
    raise ValueError(f"{q} is not prime")


def element_of_order(m, q):
    """An element of multiplicative order m in F_q (requires m | q-1)."""
    if (q - 1) % m:
        raise ValueError(f"F_{q} has no element of order {m}")
    return pow(primitive_root(q), (q - 1) // m, q)


def group_from_labels(labels, mult, H_pred, ctilde_label):
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    mul = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            mul[i, j] = index[mult(a, b)]
    H = [i for i, lab in enumerate(labels) if H_pred(lab)]
    return FiniteGroup(labels, mul, H, index[ctilde_label]), index


def _int_leaves(x):
    """True when x is an int or nested lists of ints; a bool, float or str
    anywhere makes it False."""
    if type(x) is list:
        return all(type(y) is int for y in x) or all(map(_int_leaves, x))
    return type(x) is int


class Fixture:
    """A named group together with its distinguished reps and metadata."""

    def __init__(self, name, group, reps=None, meta=None):
        self.name = name
        self.group = group
        self.reps: dict[str, Rep] = reps or {}
        self.meta = meta or {}

    def rep(self, name) -> Rep:
        return self.reps[name]

    def to_json(self):
        g = self.group
        reps = []
        for name, r in self.reps.items():
            reps.append(
                {
                    "name": name,
                    "domain": r.domain,
                    "dim": r.dim,
                    "modulus": r.mod,
                    "images": [[int(x) for x in img.reshape(-1)] for img in r.images],
                }
            )
        return {
            "name": self.name,
            "elements": [str(e) for e in g.elements],
            "mul": [[int(x) for x in row] for row in g.mul],
            "H": g.H.tolist(),
            "ctilde": g.ctilde,
            "reps": reps,
            "meta": self.meta,
        }

    @staticmethod
    def from_json(obj) -> "Fixture":
        try:
            if not _int_leaves([obj["mul"], obj["H"], obj["ctilde"]]):
                raise ValueError("malformed fixture: mul, H and ctilde must be integers")
            group = FiniteGroup(obj["elements"], obj["mul"], obj["H"], obj["ctilde"])
            reps = {}
            for r in obj["reps"]:
                domain = [] if isinstance(r["domain"], str) else r["domain"]
                if not _int_leaves([r["dim"], r["modulus"], r["images"], domain]):
                    raise ValueError("malformed fixture: a rep's dim, modulus, images "
                                     "and element list must be integers")
                d = r["dim"]
                imgs = np.array(r["images"], dtype=np.int64).reshape(-1, d, d)
                reps[r["name"]] = Rep(group, r["domain"], imgs, r["modulus"])
            return Fixture(obj["name"], group, reps, obj.get("meta", {}))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed fixture: {exc!r}") from exc

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True) + "\n")

    @staticmethod
    def load(path) -> "Fixture":
        return Fixture.from_json(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# group constructors
# ---------------------------------------------------------------------------


def semidirect_group(m, k, orders, scalars):
    """V x| A with V = (Z/m)^k and A = C_{orders[0]} x ... x C_{orders[-1]},
    a in A acting on V by the scalar s(a) = prod scalars[i]^{a_i} mod m.

    Returns the `FiniteGroup` alone.  H is {last A-coordinate even} and
    ctilde = (0, 0, ..., 1).  The labels are (v, a_0, ..., a_r), v an int
    when k = 1 and a k-tuple otherwise, numbered with a_r outermost and v
    innermost: np.unravel_index(x, orders[::-1] + (m,) * k) gives the
    coordinates (a_r, ..., a_0, v) of an element index x.  The group is its
    closed form (v, a) (v', a') = (v + s(a) v', a + a'), evaluated on index
    arrays (`_semidirect_law`); it keeps no n x n table.  m need not be
    prime.

    The argument check is the certificate that this is a group: each scalar
    has order dividing its factor's order mod m, so s is a homomorphism
    A -> (Z/m)^x and V x|_s A is a group.  The group gets its identity
    (index 0) and inverses (v, a)^-1 = (-s(-a) v, -a) in closed form and is
    not put through Light's test.
    """
    try:
        orders, scalars = tuple(orders), tuple(scalars)
    except TypeError:
        raise ValueError("the orders and the scalars must be lists of integers") from None
    try:
        m, k, *_ = map(as_index, (m, k, *orders, *scalars))
    except ValueError:
        raise ValueError("m, k, the orders and the scalars must be integers") from None
    if m < 2 or k < 1:
        raise ValueError("need m >= 2 and k >= 1")
    if not orders or min(orders) < 1:
        raise ValueError("the orders must be a nonempty list of positive integers")
    if orders[-1] % 2:
        raise ValueError("the last order must be even for an index-2 subgroup")
    if any(pow(s, d, m) != 1 for s, d in zip(scalars, orders, strict=True)):
        raise ValueError("each scalar must have order dividing its factor's order mod m")
    a_labels = [a[::-1] for a in itertools.product(*map(range, orders[::-1]))]
    v_labels = list(range(m)) if k == 1 else list(itertools.product(range(m), repeat=k))
    nv = m**k
    ac = np.array(a_labels).T  # (len(orders), na): A-coordinates per A-index
    vc = np.indices((m,) * k).reshape(k, nv)  # (k, nv): V-coordinates per V-index
    a_stride = np.cumprod((1,) + orders[:-1])
    v_stride = m ** np.arange(k - 1, -1, -1)
    scale = np.array([math.prod(pow(s, e, m) for s, e in zip(scalars, a)) % m
                      for a in a_labels])
    # indices of a + a' (na, na), s(a) v' (na, nv) and -a (na,)
    a_sum = np.tensordot(a_stride, (ac[:, :, None] + ac[:, None, :])
                         % np.array(orders)[:, None, None], 1)
    scaled = np.tensordot(v_stride, scale[:, None] * vc[:, None, :] % m, 1)
    a_neg = np.tensordot(a_stride, -ac % np.array(orders)[:, None], 1)
    # (v, a)^-1 = (-s(-a) v, -a), s(-a) = s(a)^-1 as s is a homomorphism
    v_neg = np.tensordot(v_stride, -scale[a_neg][:, None] * vc[:, None, :] % m, 1)
    inv = (v_neg + nv * a_neg[:, None]).reshape(-1)
    labels = [(v, *a) for a in a_labels for v in v_labels]
    H = np.flatnonzero(np.repeat(ac[-1] % 2 == 0, nv))
    law = _semidirect_law(m, v_stride, scaled, a_sum)
    return FiniteGroup(labels, None, H, nv * a_stride[-1], closed_form=(0, inv, law))


def _semidirect_law(m, v_stride, scaled, a_sum):
    """(v, a) (v', a') = (v + s(a) v', a + a') on element indices
    x = v + |V| a, from per-element coordinate arrays, the (|A|, |V|) table
    of s(a) v' and the (|A|, |A|) table of a + a': O(n) memory."""
    na, nv = scaled.shape
    a_of, v_of = np.divmod(np.arange(na * nv), nv)
    scaled = scaled.reshape(-1)  # at |V| a + v': the index of s(a) v'
    a_row = na * a_of
    a_next = (nv * a_sum).reshape(-1)  # at |A| a + a': |V| times the index of a + a'

    def law(x, y):
        vx, vy = v_of[x], v_of[y]
        w = scaled[x - vx + vy]  # s(a) v'
        # v + s(a) v', coordinatewise mod m
        v = sum((vx // st + w // st) % m * st for st in v_stride)
        return v + a_next[a_row[x] + a_of[y]]

    return law


# ---------------------------------------------------------------------------
# shipped fixtures
# ---------------------------------------------------------------------------


def _powers(z, exponents, mod):
    """z^e mod m for each integer e of `exponents` (z^-1 to the -e for a
    negative e) as an int64 array, a table for coordinate arrays to index."""
    return np.array([pow(z, int(e), mod) for e in exponents], dtype=np.int64)


def _cyclic_character(group, m, q, k=1):
    """(b, 0) -> z^(k b) on H = C_m of C_m x| C_2, z of order m in F_q."""
    _, b = np.unravel_index(group.H, (2, m))
    return make_character(group, "H", _powers(element_of_order(m, q), k * b, q), q)


def s3_fixture() -> Fixture:
    """(S_3, C_3, chi_3) over F_7: the smallest index-2 example."""
    q = 7
    group = semidirect_group(3, 1, (2,), (2,))
    return Fixture(
        "s3_c3_chi3_q7",
        group,
        {"chi3": _cyclic_character(group, 3, q),
         "chi3_inv": _cyclic_character(group, 3, q, -1)},
        {"q": q, "kind": "dihedral", "m": 3},
    )


def _metacyclic_2dim_rep(group, p, q, j_char=1, antisym_u=False, mod=None):
    """rho(r) = diag(z^j, z^-j), rho(u) = [[0,1],[+-1,0]] on H < C_p x| C_d:
    (b, a) -> diag(z^(j b), z^(-j b)) u^(a/2) from H's coordinate arrays."""
    mod = mod or q
    z = _lift_root_of_unity(element_of_order(p, q), p, q, mod)
    low = (mod - 1) if antisym_u else 1
    one = np.eye(2, dtype=np.int64)
    u = np.array([[0, 1], [low, 0]], dtype=np.int64)
    u_pows = np.array([one, u, low * one % mod, low * u % mod])  # u^2 = low I, low^2 = 1
    a, b = np.divmod(group.H, p)
    # diag(x, y) M scales M's rows by x and y
    rows = np.stack([_powers(z, e * j_char * b, mod) for e in (1, -1)], axis=1)
    return Rep(group, "H", rows[:, :, None] * u_pows[a // 2 % 4] % mod, mod)


def _lift_root_of_unity(z, order, q, mod):
    """Lift an order-`order` root of unity mod q to mod q^n (Hensel)."""
    x = z % mod
    while pow(x, order, mod) != 1:
        # Newton step for X^order - 1
        f = (pow(x, order, mod) - 1) % mod
        df = (order * pow(x, order - 1, mod)) % mod
        x = (x - f * inverse_mod(df, mod)) % mod
    return x


def f20_fixture(q=11) -> Fixture:
    """(F_20, D_5, 2-dim rho) over F_q with 5 | q - 1 (q = 11 or 41).

    The coset representative has order 4 (every element outside D_5 does),
    and the standard 2-dim rep has determinant equal to the sign character.
    Over F_41 (where -1 is a square) the wedge square of the induced rep
    splits off two lines whose characters take 4th-root values at ctilde;
    over F_11 no such lines exist (X^2 + 1 is irreducible).
    """
    group = semidirect_group(5, 1, (4,), (2,))
    rho = _metacyclic_2dim_rep(group, 5, q)
    reps = {"rho": rho}
    meta = {"q": q, "kind": "metacyclic", "p": 5, "d": 4}
    if (q - 1) % 4 == 0:
        i4 = element_of_order(4, q)
        j, _ = np.unravel_index(np.arange(group.n), (4, 5))
        eps = make_character(group, "G", _powers(i4, range(4), q)[j], q)
        reps["eps4"] = eps
        meta["eps4_order"] = 4
    return Fixture(f"f20_d5_rho_q{q}", group, reps, meta)


def m40_fixture(q=11) -> Fixture:
    """C_5 x| C_8 over C_5 x| C_4, 2-dim rep with trivial determinant, and
    its lift `rho_lift` over Z/q^2.

    Because det(rho) = 1 extends to the trivial character of G, the wedge
    square of the induced representation contains the two invariant lines
    with coset values +1 and -1, and the induced rep carries one even and
    one odd antisymmetric pairing -- the exact analogue of the two
    symplectic structures on a tensor-induced representation.
    """
    group = semidirect_group(5, 1, (8,), (2,))
    rho = _metacyclic_2dim_rep(group, 5, q, antisym_u=True)
    rho_lift = _metacyclic_2dim_rep(group, 5, q, antisym_u=True, mod=q * q)
    return Fixture(
        f"m40_q{q}",
        group,
        {"rho": rho, "rho_lift": rho_lift},
        {"q": q, "kind": "metacyclic", "p": 5, "d": 8, "det_rho": "trivial"},
    )


def c15_fixture(q=31) -> Fixture:
    """C_15 x| C_2 (involution x -> 4x) with an order-15 character."""
    group = semidirect_group(15, 1, (2,), (4,))
    chi = _cyclic_character(group, 15, q)
    chi2 = _cyclic_character(group, 15, q, 2)
    return Fixture(
        f"c15_q{q}", group, {"chi": chi, "chi_2": chi2}, {"q": q, "kind": "abelian_inv"}
    )


def _ribet_reps(group, q, d, chi_val, modn, corner):
    """chi, chi_inv and the lattice rep on V x| (C_d x C_2), V = Z/q^j.

    chi(delta) = chi_val mod q on H, and over Z/modn

        (v, j, e) -> [[w^j, corner v w^-j], [0, w^-j]] diag(1, (-1)^e)

    with w the Teichmueller lift of chi_val.
    """
    e, j, v = np.unravel_index(np.arange(group.n), (2, d, group.n // (2 * d)))
    on_h = e == 0
    z = chi_val % q
    chi, chi_inv = (make_character(group, "H", _powers(z, k * np.arange(d), q)[j[on_h]], q)
                    for k in (1, -1))
    w = _lift_root_of_unity(chi_val, d, q, modn)
    c = _powers(inverse_mod(w, modn), range(d), modn)[j] * (1 - 2 * e)  # |c| < modn
    imgs = np.zeros((group.n, 2, 2), dtype=np.int64)
    imgs[:, 0, 0] = _powers(w, range(d), modn)[j]
    imgs[:, 0, 1] = corner % modn * v % modn * c % modn
    imgs[:, 1, 1] = c % modn
    return {"chi": chi, "chi_inv": chi_inv, "lattice": Rep(group, "G", imgs, modn)}


def ribet_fixture(q=7, d=6, alpha=2, chi_val=3, deform=1, precision=2,
                  level=None) -> Fixture:
    """Pipeline fixture: G = V x| (C_d x C_2), V = Z/q^k with
    k = precision - level, involutive ctilde negating V.

    chi is the order-d character of H = V x| C_d with chi(delta) = chi_val;
    chi_val^2 = alpha mod q makes Hom_Delta(V, chi^2) nonzero, so the 2-dim
    lattice representation over Z/q^precision

        v    -> [[1, q^level v], [0, 1]]    delta -> diag(w, w^{-1})
        ctil -> diag(1, -1)                 (w = Teichmueller lift of chi_val)

    has a non-split class sitting `level` lattice steps down (default: one
    step below the reduction, where V = F_q).  The corner q^level v needs v
    mod q^k, and delta scales V by w^2 mod q^k.  deform=0 ships the split
    variant.
    """
    if pow(chi_val, 2, q) != alpha % q:
        raise ValueError("need chi_val^2 = alpha mod q for a nonzero class")
    if level is None:
        level = precision - 1
    if not 1 <= level < precision:
        raise ValueError("the planted level must satisfy 1 <= level < precision")
    n_v = q ** (precision - level)
    w = _lift_root_of_unity(chi_val, d, q, n_v)
    group = semidirect_group(n_v, 1, (d, 2), (w * w % n_v, -1))
    reps = _ribet_reps(group, q, d, chi_val, q**precision, q**level * deform)
    suffix = "" if deform else "_split"
    if precision != 2:
        suffix += f"_prec{precision}"
    if level != precision - 1:
        suffix += f"_level{level}"
    return Fixture(
        f"ribet_q{q}_d{d}" + suffix,
        group,
        reps,
        {
            "q": q,
            "d": d,
            "alpha": alpha,
            "chi_val": chi_val,
            "kind": "pipeline",
            "deformed": bool(deform),
            "precision": precision,
            "level": level,
        },
    )


def ribet_v0_fixture(q=7, d=6) -> Fixture:
    """Already-triangular non-split input: the lattice rep has its extension
    visible mod q (corner not divisible by q).

    Needs chi with chi^2 = alpha exactly mod q^2, which V = Z/q^2 provides:
    for q = 7, chi(delta) = 31 (order 6 mod 49) and alpha = 31^2 = 30 mod 49.
    """
    m2 = q * q
    w = _lift_root_of_unity(element_of_order(d, q), d, q, m2)
    group = semidirect_group(m2, 1, (d, 2), (w * w % m2, -1))
    return Fixture(
        f"ribet_v0_q{q}",
        group,
        _ribet_reps(group, q, d, w, m2, 1),
        {"q": q, "d": d, "kind": "pipeline_v0"},
    )


def coh294_fixture() -> Fixture:
    """Cohomology fixture: F_7^2 x| (C_3 x C_2) with a triangular 2-dim rho.

    rho((v, j, 0)) = [[2^j, v_1], [0, 1]]; det rho = t (delta -> 2) extends
    to the group character eps((v,j,e)) = 2^j (-1)^e, and both parities of
    the twist exponent are consistent with det rho (k = 2 and k = 5 mod 6).
    H^1(H, Hom(rho^c, rho)) is nonzero: v_2 never enters rho, so homs from
    the second coordinate survive.
    """
    q, d, alpha = 7, 3, 2
    group = semidirect_group(q, 2, (d, 2), (alpha, -1))
    e, j, v1, _ = np.unravel_index(np.arange(group.n), (2, d, q, q))
    on_h = e == 0
    alpha_j = _powers(alpha, range(d), q)[j]
    imgs = np.zeros((on_h.sum(), 2, 2), dtype=np.int64)
    imgs[:, 0, 0] = alpha_j[on_h]
    imgs[:, 0, 1] = v1[on_h]
    imgs[:, 1, 1] = 1
    rho = Rep(group, "H", imgs, q)
    eps = make_character(group, "G", alpha_j * (q - 1) ** e % q, q)
    return Fixture(
        "coh294_q7",
        group,
        {"rho": rho, "eps": eps},
        {"q": q, "kind": "cohomology", "k_values": [2, 5]},
    )


def shipped_fixture_builders():
    return {
        "s3_c3_chi3_q7": s3_fixture,
        "f20_d5_rho_q11": lambda: f20_fixture(11),
        "f20_d5_rho_q41": lambda: f20_fixture(41),
        "m40_q11": m40_fixture,
        "c15_q31": c15_fixture,
        "ribet_q7_d6": ribet_fixture,
        "ribet_q7_d6_split": lambda: ribet_fixture(deform=0),
        "coh294_q7": coh294_fixture,
    }


def load_shipped(name, fixtures_dir=None) -> Fixture:
    """Read `fixtures_dir/name.json` when a directory is given, else build
    the named shipped fixture."""
    if fixtures_dir:
        return Fixture.load(Path(fixtures_dir) / f"{name}.json")
    builders = shipped_fixture_builders()
    if name not in builders:
        raise FileNotFoundError(f"unknown fixture {name!r}")
    return builders[name]()


# ---------------------------------------------------------------------------
# randomized fixture sampler for the identity batteries
# ---------------------------------------------------------------------------

DIHEDRAL_TABLE = [(3, 7), (3, 13), (5, 11), (5, 31), (7, 29), (9, 19), (11, 23), (15, 31)]
METACYCLIC_TABLE = [(5, 4, 2, 11), (5, 4, 2, 31), (5, 4, 2, 41), (5, 8, 2, 11), (13, 4, 5, 53)]
ABELIAN_TABLE = [(15, 4, 31), (21, 8, 43)]

# Battery cases share a few metacyclic groups (m, 1, (d,), (a,)); caching
# keeps each group (and its memoized generators) across cases and runs.
_battery_group = functools.lru_cache(maxsize=None)(semidirect_group)


def random_battery_case(rng):
    """One randomized (group, rho1, rho2, q) case for the identity batteries.

    Mixes character-level cases (dihedral / abelian-involution pairs, both
    C_m x| C_2) with 2-dimensional cases (metacyclic pairs).
    """
    kind = rng.choice(["dihedral", "metacyclic", "abelian"], p=[0.4, 0.4, 0.2])
    if kind == "metacyclic":
        p, d, a, q = METACYCLIC_TABLE[int(rng.integers(len(METACYCLIC_TABLE)))]
        group = _battery_group(p, 1, (d,), (a,))
        j1 = int(rng.integers(1, (p - 1) // 2 + 1))
        j2 = int(rng.integers(1, (p - 1) // 2 + 1))
        anti = d == 8
        r1 = _metacyclic_2dim_rep(group, p, q, j_char=j1, antisym_u=anti)
        r2 = _metacyclic_2dim_rep(group, p, q, j_char=j2, antisym_u=anti)
        return group, r1, r2, q, f"C{p}x|C{d} dim2 j={j1},{j2} q={q}"
    if kind == "dihedral":
        m, q = DIHEDRAL_TABLE[int(rng.integers(len(DIHEDRAL_TABLE)))]
        a, name = m - 1, f"D{m}/C{m}"
    else:
        m, a, q = ABELIAN_TABLE[int(rng.integers(len(ABELIAN_TABLE)))]
        name = f"C{m}x|C2"
    group = _battery_group(m, 1, (2,), (a,))
    a1 = int(rng.integers(1, m))
    a2 = int(rng.integers(1, m))
    chi1, chi2 = (_cyclic_character(group, m, q, k) for k in (a1, a2))
    return group, chi1, chi2, q, f"{name} chars a={a1},{a2} q={q}"
