"""Shipped group/representation fixtures and their JSON (de)serialization.

Families, one group constructor each:
  * metacyclic pairs  C_m x| C_d > C_m x| C_{d/2}  (`metacyclic_pair`)
    - d = 2: the dihedral pairs C_m < D_m and the abelian + involution
      pairs C_m x| C_2 -- character-level identities, induced 2-dim reps
      with an involutive coset representative
    - d = 4 or 8, m = p prime: 2-dim dihedral-type reps; the order-40
      cover has trivial-determinant reps, so its induced 4-dim rep carries
      the two invariant wedge lines and the +-1/-1 symplectic pair
  * affine pipeline groups  V x| (C_d x C_2), V = Z/q or Z/q^2
    (`affine_pipeline_group`) -- the only desk-scale shape whose group
    order is divisible by q, so H^1 is nonzero and lattice extensions
    exist; used for the Selmer pipeline
  * plane pipeline groups  F_q^2 x| (C_d x C_2)  (`plane_pipeline_group`)
    -- the 294-element group with a 2-dim triangular rep for the cohomology
    batteries (nonzero H^1 with a 4-dim coefficient module)

Fixtures are built here, from their builders only; JSON (`Fixture.save`,
`Fixture.load`) is the format for user-supplied fixtures.  Every fixture is
validated when built or loaded: group axioms, subgroup index, and each
representation, checked on generators (Light's test), exactly.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from .exactalg import Mat, inverse_mod
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
            "H": list(g.H),
            "ctilde": g.ctilde,
            "reps": reps,
            "meta": self.meta,
        }

    @staticmethod
    def from_json(obj) -> "Fixture":
        try:
            group = FiniteGroup(obj["elements"], obj["mul"], obj["H"], obj["ctilde"])
            reps = {}
            for r in obj["reps"]:
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


def metacyclic_pair(p, d, a):
    """C_p x| C_d, generator of C_d acting by multiplication by a (a^d = 1 mod p).

    H is the index-2 subgroup C_p x| (even part of C_d); d must be even, and
    p need not be prime.  d = 2 gives C_p x| C_2 with the involution x -> a x:
    the dihedral pair C_p < D_p for a = p - 1.
    """
    if d % 2:
        raise ValueError("need even d for an index-2 subgroup")
    if pow(a, d, p) != 1:
        raise ValueError("a must have order dividing d mod p")
    labels = [(b, j) for j in range(d) for b in range(p)]

    def mult(x, y):
        b, j = x
        b2, j2 = y
        return ((b + pow(a, j, p) * b2) % p, (j + j2) % d)

    return group_from_labels(labels, mult, lambda x: x[1] % 2 == 0, (0, 1))


def affine_pipeline_group(q, d, alpha):
    """V x| (C_d x C_2), V = Z/q: delta scales V by alpha, the involution
    negates V.

    |G| = 2 d q, H = V x| C_d has order divisible by q, so H^1(H, -) over
    F_q is typically nonzero: this is the Selmer-bearing family.  q may be a
    prime power: V = Z/q^2 lets extension classes lift to inputs whose
    corner is nonzero mod q (`ribet_v0_fixture`).
    """
    if pow(alpha, d, q) != 1:
        raise ValueError("alpha must have order dividing d mod q")
    labels = [(v, j, e) for e in range(2) for j in range(d) for v in range(q)]

    def mult(x, y):
        v, j, e = x
        v2, j2, e2 = y
        return ((v + pow(alpha, j, q) * (-1) ** e * v2) % q, (j + j2) % d, (e + e2) % 2)

    return group_from_labels(labels, mult, lambda x: x[2] == 0, (0, 0, 1))


def plane_pipeline_group(q, d, alpha):
    """F_q^2 x| (C_d x C_2): delta scales the plane by alpha, involution negates."""
    if pow(alpha, d, q) != 1:
        raise ValueError("alpha must have order dividing d mod q")
    labels = [
        ((v1, v2), j, e)
        for e in range(2)
        for j in range(d)
        for v1 in range(q)
        for v2 in range(q)
    ]

    def mult(x, y):
        (v1, v2), j, e = x
        (w1, w2), j2, e2 = y
        s = pow(alpha, j, q) * (-1) ** e
        return (((v1 + s * w1) % q, (v2 + s * w2) % q), (j + j2) % d, (e + e2) % 2)

    return group_from_labels(labels, mult, lambda x: x[2] == 0, ((0, 0), 0, 1))


# ---------------------------------------------------------------------------
# shipped fixtures
# ---------------------------------------------------------------------------


def _cyclic_character(group, index, m, q, k=1):
    """(b, 0) -> z^(k b) on H = C_m of C_m x| C_2, z of order m in F_q."""
    z = element_of_order(m, q)
    return make_character(group, "H", {index[(b, 0)]: pow(z, k * b, q) for b in range(m)}, q)


def s3_fixture(q=7) -> Fixture:
    """(S_3, C_3, chi_3) over F_7: the smallest index-2 example."""
    group, index = metacyclic_pair(3, 2, 2)
    return Fixture(
        "s3_c3_chi3_q7",
        group,
        {"chi3": _cyclic_character(group, index, 3, q),
         "chi3_inv": _cyclic_character(group, index, 3, q, -1)},
        {"q": q, "kind": "dihedral", "m": 3},
    )


def _metacyclic_2dim_rep(group, index, p, d, q, j_char=1, antisym_u=False, mod=None):
    """rho(r) = diag(z^j, z^-j), rho(u) = [[0,1],[+-1,0]] on H < C_p x| C_d."""
    mod = mod or q
    z = _lift_root_of_unity(element_of_order(p, q), p, q, mod)
    zi = inverse_mod(z, mod)
    low = (mod - 1) if antisym_u else 1
    r_img = Mat([[z, 0], [0, zi]], mod)
    u_img = Mat([[0, 1], [low, 0]], mod)
    imgs = {}
    for b in range(p):
        for jj in range(0, d, 2):
            imgs[index[(b, jj)]] = r_img.pow((b * j_char) % p) @ u_img.pow(jj // 2)
    return Rep(group, "H", imgs, mod)


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
    group, index = metacyclic_pair(5, 4, 2)
    rho = _metacyclic_2dim_rep(group, index, 5, 4, q)
    reps = {"rho": rho}
    meta = {"q": q, "kind": "metacyclic", "p": 5, "d": 4}
    if (q - 1) % 4 == 0:
        i4 = element_of_order(4, q)
        eps = make_character(
            group, "G", {index[(b, j)]: pow(i4, j, q) for b in range(5) for j in range(4)}, q
        )
        reps["eps4"] = eps
        meta["eps4_order"] = 4
    return Fixture(f"f20_d5_rho_q{q}", group, reps, meta)


def m40_fixture(q=11, lattice=True) -> Fixture:
    """C_5 x| C_8 over C_5 x| C_4, 2-dim rep with trivial determinant.

    Because det(rho) = 1 extends to the trivial character of G, the wedge
    square of the induced representation contains the two invariant lines
    with coset values +1 and -1, and the induced rep carries one even and
    one odd antisymmetric pairing -- the exact analogue of the two
    symplectic structures on a tensor-induced representation.
    """
    group, index = metacyclic_pair(5, 8, 2)
    rho = _metacyclic_2dim_rep(group, index, 5, 8, q, antisym_u=True)
    reps = {"rho": rho}
    if lattice:
        reps["rho_lift"] = _metacyclic_2dim_rep(
            group, index, 5, 8, q, antisym_u=True, mod=q * q
        )
    return Fixture(
        f"m40_q{q}",
        group,
        reps,
        {"q": q, "kind": "metacyclic", "p": 5, "d": 8, "det_rho": "trivial"},
    )


def c15_fixture(q=31) -> Fixture:
    """C_15 x| C_2 (involution x -> 4x) with an order-15 character."""
    group, index = metacyclic_pair(15, 2, 4)
    chi = _cyclic_character(group, index, 15, q)
    chi2 = _cyclic_character(group, index, 15, q, 2)
    return Fixture(
        f"c15_q{q}", group, {"chi": chi, "chi_2": chi2}, {"q": q, "kind": "abelian_inv"}
    )


def _ribet_reps(group, index, q, d, chi_val, n_v, modn, corner):
    """chi, chi_inv and the lattice rep on V x| (C_d x C_2), V = Z/n_v.

    chi(delta) = chi_val mod q on H, and over Z/modn

        (v, j, e) -> [[w^j, corner v w^-j], [0, w^-j]] diag(1, (-1)^e)

    with w the Teichmueller lift of chi_val.
    """
    z = chi_val % q
    H = [(v, j) for v in range(n_v) for j in range(d)]
    chi, chi_inv = (
        make_character(group, "H", {index[(v, j, 0)]: pow(z, k * j, q) for v, j in H}, q)
        for k in (1, -1)
    )
    w = _lift_root_of_unity(chi_val, d, q, modn)
    wi = inverse_mod(w, modn)
    imgs = np.zeros((group.n, 2, 2), dtype=np.int64)
    for v, j in H:
        a, c = pow(w, j, modn), pow(wi, j, modn)
        b = corner * v * c
        for e, s in ((0, 1), (1, -1)):
            imgs[index[(v, j, e)]] = [[a, b * s % modn], [0, c * s % modn]]
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
    group, index = affine_pipeline_group(n_v, d, w * w % n_v)
    reps = _ribet_reps(group, index, q, d, chi_val, n_v, q**precision, q**level * deform)
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
    group, index = affine_pipeline_group(m2, d, w * w % m2)
    return Fixture(
        f"ribet_v0_q{q}",
        group,
        _ribet_reps(group, index, q, d, w, m2, m2, 1),
        {"q": q, "d": d, "kind": "pipeline_v0"},
    )


def coh294_fixture(q=7) -> Fixture:
    """Cohomology fixture: F_7^2 x| (C_3 x C_2) with a triangular 2-dim rho.

    rho((v, j, 0)) = [[2^j, v_1], [0, 1]]; det rho = t (delta -> 2) extends
    to the group character eps((v,j,e)) = 2^j (-1)^e, and both parities of
    the twist exponent are consistent with det rho (k = 2 and k = 5 mod 6).
    H^1(H, Hom(rho^c, rho)) is nonzero: v_2 never enters rho, so homs from
    the second coordinate survive.
    """
    d, alpha = 3, 2
    group, index = plane_pipeline_group(q, d, alpha)
    imgs = {}
    for v1 in range(q):
        for v2 in range(q):
            for j in range(d):
                g = index[((v1, v2), j, 0)]
                imgs[g] = Mat(np.array([[pow(alpha, j, q), v1], [0, 1]]), q)
    rho = Rep(group, "H", imgs, q)
    eps = make_character(
        group,
        "G",
        {
            index[((v1, v2), j, e)]: pow(alpha, j, q) * (q - 1) ** e % q
            for v1 in range(q)
            for v2 in range(q)
            for j in range(d)
            for e in range(2)
        },
        q,
    )
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

# Battery cases share a few groups; caching keeps each group (and its
# memoized generators) across cases and runs.
_battery_group = functools.lru_cache(maxsize=None)(metacyclic_pair)


def random_battery_case(rng):
    """One randomized (group, rho1, rho2, q) case for the identity batteries.

    Mixes character-level cases (dihedral / abelian-involution pairs, both
    C_m x| C_2) with 2-dimensional cases (metacyclic pairs).
    """
    kind = rng.choice(["dihedral", "metacyclic", "abelian"], p=[0.4, 0.4, 0.2])
    if kind == "metacyclic":
        p, d, a, q = METACYCLIC_TABLE[int(rng.integers(len(METACYCLIC_TABLE)))]
        group, index = _battery_group(p, d, a)
        j1 = int(rng.integers(1, (p - 1) // 2 + 1))
        j2 = int(rng.integers(1, (p - 1) // 2 + 1))
        anti = d == 8
        r1 = _metacyclic_2dim_rep(group, index, p, d, q, j_char=j1, antisym_u=anti)
        r2 = _metacyclic_2dim_rep(group, index, p, d, q, j_char=j2, antisym_u=anti)
        return group, r1, r2, q, f"C{p}x|C{d} dim2 j={j1},{j2} q={q}"
    if kind == "dihedral":
        m, q = DIHEDRAL_TABLE[int(rng.integers(len(DIHEDRAL_TABLE)))]
        a, name = m - 1, f"D{m}/C{m}"
    else:
        m, a, q = ABELIAN_TABLE[int(rng.integers(len(ABELIAN_TABLE)))]
        name = f"C{m}x|C2"
    group, index = _battery_group(m, 2, a)
    a1 = int(rng.integers(1, m))
    a2 = int(rng.integers(1, m))
    chi1, chi2 = (_cyclic_character(group, index, m, q, k) for k in (a1, a2))
    return group, chi1, chi2, q, f"{name} chars a={a1},{a2} q={q}"
