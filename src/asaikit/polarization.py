"""Polarization signs, the Ribet lattice descent over Z/q^n, the pipeline
that produces an extension class of the correct parity, and the criticality
dimension count.

Sign conventions.  A conjugate-polarized representation is R on H with
R^vee = A R^c A^{-1} psi|_H for a character psi of G; a plain-polarized one
satisfies R^vee = B R B^{-1} psi.  The witnesses of each transpose symmetry
are ``grouprep.hom_kernel(psi R^c, R^vee, +-1)`` (``psi R`` for the plain
case), and ``PolarizedRep`` checks a given witness against
``hom_system(psi R^c, R^vee)``.  In both cases the definite-symmetry
invertible witnesses all share one transpose symmetry, which is the sign.
The witness can be +- definite only when R(ctilde^2) acts as a scalar, so
sign fixtures use involutive coset representatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cohomology import (
    Cocycle,
    SelmerStructure,
    as_twisted_module,
    conj_action,
    h1,
    hom_module,
    selmer_subgroup,
)
from .exactalg import (
    Mat,
    as_sign,
    charpoly_stack,
    extend_basis,
    polymul_stack,
    rref_mod,
)
from .grouprep import (
    Rep,
    conjugate_rep,
    contains_invertible,
    dual_twist,
    hom_kernel,
    hom_system,
    intertwiner_space,
    is_isomorphic,
    power_character,
)


class PipelineError(RuntimeError):
    """A pipeline precondition failed or no class was produced."""


# ---------------------------------------------------------------------------
# polarization witnesses and the sign
# ---------------------------------------------------------------------------


def _witness_pair(rep: Rep, psi: Rep, conjugate: bool) -> tuple[Rep, Rep]:
    """(psi R^c, R^vee), or (psi R, R^vee) for a plain polarization: the
    witnesses are Hom(psi R^?, R^vee), the A with R^vee(g) A = psi(g) A R^?(g)."""
    g = rep.group
    src = rep
    if conjugate:  # R^c by its gather: conjugate_rep warns on a rep of all of G
        imgs = rep.arr(g.conj_ctilde(rep.elements))
        src = Rep(g, rep.domain, imgs, rep.mod, validate=False)
    return src.twist(psi), rep.dual()


def endomorphism_free_rank(rep: Rep) -> int:
    """Number of full-order generators of End(rep) (1 = Schur at precision),
    read off the memoized `hom_kernel(rep, rep)`."""
    return sum(1 for _, ann in hom_kernel(rep, rep) if ann == rep.mod)


@dataclass
class PolarizedRep:
    """R with its polarization character and a definite-symmetry witness."""

    rep: Rep
    psi: Rep
    witness: Mat
    symmetry: int  # +1 symmetric, -1 antisymmetric
    conjugate: bool = True

    def __post_init__(self):
        symmetry = as_sign(self.symmetry)
        if symmetry is None:
            raise ValueError(f"symmetry must be +1 or -1, got {self.symmetry!r}")
        self.symmetry = symmetry
        w = self.witness
        if w.mod != self.rep.mod:
            raise ValueError("witness modulus does not match the representation's")
        if not w.is_invertible():
            raise ValueError("witness is not invertible")
        a = w.a
        if not np.array_equal(a.T, self.symmetry * a % w.mod):
            raise ValueError("witness is not " + ("symmetric" if self.symmetry == 1
                                                  else "antisymmetric"))
        # Both sides of the identity are homomorphisms in x once rep and psi
        # are, so agreement on the domain's generators is agreement on it.
        self.rep.validate()
        self.psi.validate()
        sys = hom_system(*_witness_pair(self.rep, self.psi, self.conjugate))
        # products reduced before the row sum: int64 holds d^2 residues
        if np.any((sys * a.reshape(-1) % w.mod).sum(axis=1) % w.mod):
            raise ValueError("polarization witness identity fails")


def polarize(rep: Rep, psi: Rep, conjugate: bool = True) -> PolarizedRep:
    """Solve for a definite-symmetry invertible witness and package it.

    For each symmetry the witness is `contains_invertible` over the
    memoized `hom_kernel` of the witness pair with that symmetry, its tries
    drawn at the default seed.  Raises if End(rep) has free rank != 1
    (Schur fails, sign undefined) or if no invertible witness of definite
    transpose symmetry is found.
    """
    if endomorphism_free_rank(rep) != 1:
        raise ValueError("intertwiner space dimension != 1: sign undefined")
    pair = _witness_pair(rep, psi, conjugate)
    d = rep.dim
    found = {}
    for sign in (1, -1):
        cands = [Mat(v.reshape(d, d), rep.mod) for v, _ in hom_kernel(*pair, sign)]
        w = contains_invertible(cands)
        if w is not None:
            found[sign] = w
    if not found:
        raise ValueError("no invertible definite-symmetry witness: sign undefined")
    if len(found) == 2:
        raise ValueError("invertible witnesses of both signs exist")
    sign, w = next(iter(found.items()))
    return PolarizedRep(rep, psi, w, sign, conjugate)


def bc_sign(p: PolarizedRep) -> int:
    """The transpose symmetry of the polarization witness, +1 or -1."""
    return p.symmetry


def sign_congruence(p1: PolarizedRep, p2: PolarizedRep) -> dict:
    """Congruent plain-polarized reps have equal signs (Schur-scalar check).

    Requires psi_1 = psi_2 mod q, isomorphic residually absolutely
    irreducible reductions; finds M with rhobar_2 = M rhobar_1 M^{-1},
    verifies (M^{-T} B_1)^{-1} B_2 M is scalar mod q, and asserts the
    antisymmetry of B_2 whenever B_1 is antisymmetric.
    """
    if p1.conjugate or p2.conjugate:
        raise ValueError("sign congruence is for plain-polarized representations")
    r1, r2 = p1.rep, p2.rep
    if r1.mod != r2.mod or r1.dim != r2.dim:
        raise ValueError("mismatched representations")
    q = r1.q
    report = {"q": q, "modulus": r1.mod}
    els = r1.elements
    if np.any((p1.psi.value(els) - p2.psi.value(els)) % q):
        raise ValueError("polarization characters disagree mod q")
    red1, red2 = r1.reduce(q), r2.reduce(q)
    for red in (red1, red2):
        if endomorphism_free_rank(red) != 1:
            raise ValueError("reduction is not absolutely irreducible")
    iso, m = is_isomorphic(red1, red2)
    if not iso:
        raise ValueError("reductions are not isomorphic")
    b1 = p1.witness.a % q
    b2 = p2.witness.a % q
    mtb1 = m.inverse().a.T @ b1 % q  # M^{-T} B_1
    lhs = Mat(mtb1, q).inverse().a @ b2 % q @ m.a % q
    s = int(lhs[0, 0])
    if not np.array_equal(lhs, np.eye(r1.dim, dtype=np.int64) * s):
        raise AssertionError("Schur matrix is not scalar")
    report["schur_scalar"] = s
    report["sign1"] = p1.symmetry
    report["sign2"] = p2.symmetry
    report["signs_agree"] = p1.symmetry == p2.symmetry
    if p1.symmetry == -1 and p2.symmetry != -1:
        raise AssertionError("antisymmetry did not propagate along the congruence")
    return report


# ---------------------------------------------------------------------------
# Ribet lattice descent
# ---------------------------------------------------------------------------


@dataclass
class LatticeRep:
    """A representation over Z/q^n (n >= 2) whose mod-q semisimplification
    is rhobar1 + rhobar2 with distinct absolutely irreducible summands.

    The semisimplification is checked on H by Brauer-Nesbitt: at every
    element, the charpoly of the reduction mod q equals the product of the
    residual charpolys.  All three charpolys come from one batched
    `charpoly_stack` each over the H image stack, and the products from one
    `polymul_stack`.
    """

    rep: Rep          # over Z/q^n, on G (carries the coset structure)
    rhobar1: Rep      # over F_q, on H
    rhobar2: Rep      # over F_q, on H
    rep_H: Rep = field(init=False, repr=False, compare=False)  # rep on H

    def __post_init__(self):
        q = self.rep.q
        if self.rep.precision < 2:
            raise ValueError("lattice representations need modulus q^n, n >= 2")
        if self.rhobar1.mod != q or self.rhobar2.mod != q:
            raise ValueError("residual data must live over F_q")
        if self.rhobar1.dim + self.rhobar2.dim != self.rep.dim:
            raise ValueError("residual dimensions do not add up")
        for rb in (self.rhobar1, self.rhobar2):
            if endomorphism_free_rank(rb) != 1:
                raise ValueError("residual summand is not absolutely irreducible")
        if intertwiner_space(self.rhobar1, self.rhobar2):
            raise ValueError("residual summands must be non-isomorphic")
        # Brauer-Nesbitt style check of the semisimplification on H
        self.rep_H = self.rep.restrict_to_H()
        els = self.rhobar1.elements
        p1, p2, lhs = (charpoly_stack(r.arr(els), q)
                       for r in (self.rhobar1, self.rhobar2, self.rep_H))
        if not np.array_equal(lhs, polymul_stack(p1, p2, q)):
            raise ValueError("mod-q semisimplification does not match")


@dataclass
class RibetResult:
    conjugated: Rep             # the conjugated lattice rep on H
    cocycle: Cocycle | None     # class in Z^1(H, Hom(rhobar2, rhobar1))
    split: bool
    level: int                  # q-valuation at which the class appeared
    h1data: object = None


def _mod_q_triangularization(latt: LatticeRep):
    """Basis V over Z/q^n whose conjugate reduces to [[rb1, *], [0, rb2]]."""
    rep = latt.rep_H
    q = latt.rep.q
    mod = rep.mod
    red = rep.reduce(q)
    rb1, rb2 = latt.rhobar1, latt.rhobar2
    d1, d2 = rb1.dim, rb2.dim
    hom1 = intertwiner_space(rb1, red)  # maps V1 -> reduction
    if len(hom1) != 1:
        raise PipelineError(
            "no conjugate achieves a triangular reduction with the prescribed "
            "block order (rhobar1 does not embed)"
        )
    m1 = hom1[0].a  # (d1+d2) x d1, columns span the rhobar1-subspace
    sub, piv = rref_mod(m1.T, q)
    sub = sub[: len(piv)]
    # complement via pivot-free coordinates
    free = [j for j in range(d1 + d2) if j not in piv]
    lift = np.zeros((d1 + d2, d2), dtype=np.int64)
    for i, j in enumerate(free):
        lift[j, i] = 1
    # projection along the subspace: solve [sub^T | lift] coords
    basis = np.hstack([sub.T, lift]) % q
    proj = Mat(basis, q).inverse().a[d1:, :]  # complement coordinates
    # quotient action on the complement coordinates
    quo = Rep(red.group, "H", proj @ red.images % q @ lift % q, q, validate=False)
    iso, tw = is_isomorphic(rb2, quo)
    if not iso:
        raise PipelineError(
            "no conjugate achieves a triangular reduction with the prescribed "
            "block order (quotient is not rhobar2)"
        )
    vbar = np.hstack([m1, lift @ tw.a % q]) % q
    if not Mat(vbar, q).is_invertible():
        raise PipelineError("triangularization basis is singular")
    return Mat(vbar % mod, mod)  # entrywise lift


def ribet_lattice(latt: LatticeRep) -> RibetResult:
    """Conjugate the lattice so its reduction is [[rb1, *], [0, rb2]] and
    extract the extension class, descending the lattice chain while the
    class vanishes; termination is bounded by the precision n."""
    rep = latt.rep_H
    q, n = rep.q, rep.precision
    mod = rep.mod
    rb1, rb2 = latt.rhobar1, latt.rhobar2
    d1, d2 = rb1.dim, rb2.dim
    v = _mod_q_triangularization(latt)
    imgs = v.inverse().a @ rep.images % mod @ v.a % mod
    rb2_inv = rb2.arr(rep.group.inv[rep.elements])
    hmod = hom_module(rb1, rb2)  # Hom(rb2, rb1), action rb1 . X . rb2^{-1}
    data = h1(hmod)
    level = 0
    while level < n:
        scale = q**level
        shoulders = imgs[:, :d1, d1:]
        if np.any(shoulders % scale):
            raise AssertionError("shoulder valuation dropped below the level")
        bvals = (shoulders // scale) % q
        # phi(g) = b(g) rb2(g)^{-1}, a cocycle as (AB)_12 = A11 B12 + A12 B22
        phi = Cocycle(hmod, (bvals @ rb2_inv % q).reshape(len(imgs), d1 * d2),
                      validate=False)
        if not data.is_coboundary(phi):
            conj = Rep(rep.group, "H", imgs, mod, validate=False)
            return RibetResult(conj, phi, False, level, data)
        if level == n - 1:
            break
        # absorb the coboundary level and move one lattice step deeper
        x = data.coboundary_preimage(data.gen_vector(phi))
        if x is None:
            raise AssertionError("coboundary did not solve")
        corr = x.reshape(d1, d2)
        u = np.eye(d1 + d2, dtype=np.int64)
        u[:d1, d1:] = (-scale * corr) % mod
        uinv = np.eye(d1 + d2, dtype=np.int64)
        uinv[:d1, d1:] = (scale * corr) % mod
        imgs = uinv @ imgs % mod @ u % mod
        level += 1
    conj = Rep(rep.group, "H", imgs, mod, validate=False)
    return RibetResult(conj, None, True, level, data)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


@dataclass
class PipelineReport:
    sign: int
    eigenvalue: int
    in_selmer: bool | None
    class_coords: list
    level: int
    eigenvalue_law_holds: bool
    details: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "sign": self.sign,
            "eigenvalue": self.eigenvalue,
            "selmer_membership": self.in_selmer,
            "class_representative": [int(c) for c in self.class_coords],
            "lattice_level": self.level,
            "eigenvalue_law_holds": self.eigenvalue_law_holds,
            **self.details,
        }


def theorem_main_pipeline(
    latt: LatticeRep,
    psi: Rep,
    selmer: SelmerStructure | None = None,
    require_odd_psi: bool = True,
) -> PipelineReport:
    """Run the whole construction: Ribet descent, class extraction, the
    conjugation eigenvalue, the sign, and Selmer membership.

    The eigenvalue must equal -psi(ctilde) * sign(R); with an odd psi and
    sign +1 this is +1, i.e. the class lies in the plus eigenspace, which
    descends to the untwisted tensor-induced module.  The class is carried
    there by the `is_isomorphic` witness of rb2 = rb1^{c vee} psi^{-1}, and
    the sign is that of `polarize(rep|_H, psi)`; both searches are seeded,
    so a fixed input gives a fixed report.  psi must be a character of G
    over the lattice's modulus Z/q^n, else PipelineError.
    """
    g = latt.rep.group
    q = latt.rep.q
    if (psi.group is not g or psi.domain != "G" or psi.dim != 1
            or psi.mod != latt.rep.mod):
        raise PipelineError("psi must be a character of G over the lattice's modulus")
    psic = int(psi.value(g.ctilde))
    psic_sign = 1 if psic % q == 1 else (-1 if (psic + 1) % q == 0 else None)
    if psic_sign is None:
        raise PipelineError("psi(ctilde) must be +-1 mod q")
    if require_odd_psi and psic_sign != -1:
        raise PipelineError("psi(ctilde) = -1 is required")
    rb1, rb2 = latt.rhobar1, latt.rhobar2
    # residual blocks swapped by the polarization: rb2 = rb1^{c vee} psi^{-1}
    psibar_inv = power_character(psi.reduce(q), -1)
    target = dual_twist(conjugate_rep(rb1), psibar_inv)
    iso, t = is_isomorphic(rb2, target)
    if not iso:
        raise PipelineError("rhobar2 is not rhobar1^{c vee} psi^{-1}")
    # Ribet descent
    rr = ribet_lattice(latt)
    if rr.split:
        raise PipelineError("split extension: the pipeline yields no class")
    # the polarization sign of R = rep|_H
    pol = polarize(latt.rep_H, psi, conjugate=True)
    sign = bc_sign(pol)
    # transport the class into the tensor-induced ambient module
    ambient = as_twisted_module(rb1, psi.reduce(q))
    res_amb = ambient.restrict(rr.cocycle.module.domain)
    tinv = t.inverse().a
    conv = np.kron(np.eye(rb1.dim, dtype=np.int64), tinv.T) % q
    as_vals = (rr.cocycle.values @ conv.T) % q
    as_coc = Cocycle(res_amb, as_vals, validate=False)  # t is an exact intertwiner
    data_as = h1(res_amb)
    coords = data_as.class_coords(as_coc)
    out = conj_action(as_coc, ambient)
    out_coords = data_as.class_coords(out)
    eig = None
    if np.array_equal(out_coords, coords):
        eig = 1
    elif np.array_equal(out_coords, (-coords) % q):
        eig = -1
    if eig is None:
        raise PipelineError("extension class is not a conjugation eigenvector")
    law = eig == -psic_sign * sign
    in_sel = None
    if selmer is not None:
        sel = selmer_subgroup(data_as, selmer)
        in_sel = not extend_basis(sel, coords.reshape(1, -1), q)
    details = {"psi_at_ctilde": -1 if psic_sign == -1 else 1,
               "h1_dim": int(data_as.dim)}
    return PipelineReport(
        sign=sign,
        eigenvalue=eig,
        in_selmer=in_sel,
        class_coords=list(coords),
        level=rr.level,
        eigenvalue_law_holds=law,
        details=details,
    )


# ---------------------------------------------------------------------------
# criticality dimension count
# ---------------------------------------------------------------------------


def criticality_dimensions(n: int, w: int = 1, i: int = 0) -> dict:
    """Dimension of the +-eigenspace of the signed swap on an n^2-space.

    The involution sends e_a x e_b to (-1)^w (-1)^(w+1) e_b x e_a = -e_b x e_a
    for every weight, so its trace is -n and its plus eigenspace, of
    dimension (n^2 + trace)/2 = n(n-1)/2, is the antisymmetric part; that
    must match the de Rham quotient count for criticality.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    trace = -n  # e_a x e_a -> -e_a x e_a; e_a x e_b, a != b, leaves its line
    betti_plus = (n * n + trace) // 2
    dr = n * (n - 1) // 2
    return {
        "betti_plus": betti_plus,
        "dr_quotient": dr,
        "critical": betti_plus == dr,
        "weight": w,
        "twist": i,
    }
