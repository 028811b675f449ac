"""1-cocycles, coboundaries and H^1 over F_q, with the
conjugation action of the nontrivial coset, the polarization involution on
extension classes, eigenspace splitting, the Shapiro isomorphism, and
Selmer-style subgroups cut out by local conditions.

Coefficient modules are `grouprep.Rep`s on any subgroup of G.  Cocycles
are stored on every element of their domain.  A cocycle is checked where
it enters (a caller's `Cocycle(...)`, `H1Data.cocycle_from_gen_vector`):
the defining identity phi(gh) = phi(g) + g.phi(h) is tested on generators
(Light's test), exactly: the h for which it holds for every g are closed
under products, and every element, 1 included, is a non-empty word in
the generators, so phi(1) = 0 follows.  A cocycle derived from checked
ones is one by construction and is not checked again.  `_defect` is the
one place that identity is written; the cocycle check and H^1's rows and
probe call it.
H^1 is computed by parametrizing cocycles by their values on a generating
set: the cocycle identity across all (element, generator) pairs is a finite
exact linear system whose kernel is Z^1.  The values on every element are
expanded from the generator values along each generator's repeated squares
s^(2^j), with phi(t^2) = phi(t) + t.phi(t), as in binary powering; the walk
takes about sum log2(ord s) batched layers instead of one per step of the
Cayley graph.
That all-pairs system defines Z^1 but is built whole only when it is
small.  Otherwise its rows at a few probe elements are solved, every
candidate is put through Light's test on every element and generator in
one batched pass, and elements where one fails join the probe.  The
probe's kernel is then Z^1, so over F_q its reduced echelon form, and the
kernel basis read off it, are the full system's.
"""

from __future__ import annotations

import numpy as np

from .exactalg import (
    Mat,
    as_index,
    as_index_array,
    extend_basis,
    kernel_mod,
    row_space_mod,
    rref_mod,
    solve_mod,
    validate_modulus,
)
from .grouprep import Rep, conjugate_rep, dual_twist, induce, tensor_induce


class Cocycle:
    """phi: domain -> (F_q)^d with phi(gh) = phi(g) + g.phi(h), exactly."""

    def __init__(self, module: Rep, values, validate=True):
        self.module = module
        self.values = np.mod(as_index_array(values), module.mod)
        if self.values.shape != (len(module.elements), module.dim):
            raise ValueError("cocycle values have the wrong shape")
        self.values.flags.writeable = False
        if validate:
            self.validate()

    def validate(self):
        m = self.module
        vals = self.values[:, :, None]
        if _defect(m, vals, vals[m.pos[np.array(m.gens)]]).any():
            raise ValueError("cocycle identity fails")

    def value(self, g):
        """phi(g), or the stack of values on an index array g."""
        return self.values[self.module.index(g)]

    def __add__(self, other):
        _same_module(self.module, other)
        return Cocycle(self.module, (self.values + other.values) % self.module.mod,
                       validate=False)

    def __sub__(self, other):
        _same_module(self.module, other)
        return Cocycle(self.module, (self.values - other.values) % self.module.mod,
                       validate=False)

    def scale(self, k):
        m = self.module.mod
        return Cocycle(self.module, self.values * (as_index(k) % m) % m, validate=False)

    def restrict(self, submodule: Rep) -> "Cocycle":
        """phi on a subgroup, with coefficients in `submodule`: the
        restriction of the cocycle's module there, over the same group and
        modulus (as `conj_action` requires of its ambient module)."""
        m = self.module
        if submodule.group is not m.group or submodule.mod != m.mod:
            raise ValueError("restriction needs the same group and modulus")
        idx = m.pos[submodule.dom.array]
        if idx.min() < 0:
            raise ValueError("restriction target is not inside the cocycle's domain")
        if not np.array_equal(submodule.images, m.images[idx]):
            raise ValueError("submodule is not the restriction of the cocycle's module")
        return Cocycle(submodule, self.values[idx], validate=False)


def _same_module(module: Rep, cocycle: Cocycle):
    """ValueError unless `cocycle` is on `module`: the same group, domain,
    modulus and images."""
    if cocycle.module is not module and cocycle.module != module:
        raise ValueError("cocycles on different modules")


def _defect(module: Rep, vals, at_gens, at=slice(None)):
    """phi(x s) - phi(x) - x.phi(s) mod m at the element positions `at` (all
    by default) and every generator s, for r value columns at once: `vals`
    (N, d, r) holds phi on every element and `at_gens` (k, d, r) on the
    generators.  Returns (P, k, d, r) for P positions.  This is the one place
    the cocycle identity is written; each x.phi(s) is a sum of d residue
    products, reduced before the sums, so int64 holds it exactly."""
    m = module.mod
    xs = module.images[at][:, None] @ at_gens % m
    return (vals[module.dom.gen_pos[at]] - vals[at][:, None] - xs) % m


def coboundary(module: Rep, x) -> Cocycle:
    """(dx)(g) = g.x - x."""
    x = np.mod(as_index_array(x), module.mod)
    vals = (np.einsum("aij,j->ai", module.images, x) - x) % module.mod
    return Cocycle(module, vals, validate=False)


# H1Data solves a consistency system of at most this many entries whole
# (below it the probe's check costs more than it saves)
SMALL_SYSTEM = 4096
# the number of elements whose consistency rows H1Data solves first
PROBES = 4


class H1Data:
    """Exact Z^1 / B^1 / H^1 data for a module, in generator coordinates.

    A cocycle is determined by its values on `gens`; `expand[module.pos[g]]`
    maps that generator-value vector to phi(g).  It is filled along the
    jumps t = s^(2^j) of each generator s (in `gens` order, while t != 1
    and 2^j < |domain|), whose values phi(t^2) = phi(t) + t.phi(t) follow
    from phi(s) by repeated squaring.  The walk is breadth-first from the
    identity over the jumps, one batched step per layer, through the first
    (frontier element, jump) pair in row-major order that reaches each new
    element: phi(a t) = phi(a) + a.phi(t).  The walk and the products x s
    depend on the group and the domain alone; they come from the domain's
    `grouprep.Domain`, computed once per domain.  `depth` counts the walk's
    layers, about the sum of log2(ord s) rather than the diameter of the
    Cayley graph.  Off Z^1, `expand` depends on that spanning tree; on Z^1
    it is the cocycle itself.  Z^1 is the kernel of the consistency system
    over all (element, generator) pairs, the `_defect` of `expand`, which
    does not depend on the tree, B^1 the image of the coboundary map, and
    the H^1 representatives extend B^1 to Z^1.

    A system of at most `SMALL_SYSTEM` entries, N (k d)^2, is solved whole.
    A larger one is solved at `PROBES` elements spread over the domain, so
    on PROBES k d rows; the kernel's rows are expanded to every element,
    per generator block (k d residue products would overflow int64 where d
    do not), and Light's test, `_defect` again, runs on every (element,
    generator) pair.  A few elements where some candidate fails join the
    probe, which cuts the kernel, so at most k d + 1 rounds run.  A kernel
    that passes is the full system's: `z1` is the same basis either way.
    """

    def __init__(self, module: Rep):
        m = module
        if m.precision != 1:
            raise ValueError("H^1 is computed over a prime field F_q")
        self.module = m
        self.q = q = m.q
        self.gens = m.gens
        gens = np.array(m.gens)
        N, k, d = len(m.elements), len(gens), m.dim
        D = k * d
        jump, keep, layers = m.dom.walk
        # the jumps' values, generator-major: phi(s) = e_s, and
        # phi(t^2) = phi(t) + t.phi(t), each product a sum of d residue products
        jval = np.empty((k, jump.shape[1], d, D), dtype=np.int64)
        v = np.eye(D, dtype=np.int64).reshape(k, d, D)
        for j in range(jump.shape[1]):
            if j:
                v = (v + m.arr(jump[:, j - 1]) @ v % q) % q
            jval[:, j] = v
        jval = jval[keep]
        expand = np.zeros((N, d, D), dtype=np.int64)
        for a, new, t in layers:
            # phi(a t) = phi(a) + a.phi(t), at positions in the domain
            expand[new] = (expand[a] + m.images[a] @ jval[t] % q) % q
        self.depth = len(layers)
        self.expand = expand
        self.z1 = self._solve_z1()  # gen-coordinate rows
        # row j: the coboundary of e_j in generator coordinates, s.e_j - e_j
        eye = np.eye(d, dtype=np.int64)
        self.coboundaries = (m.arr(gens) - eye).transpose(2, 0, 1).reshape(d, D) % q
        self.b1 = row_space_mod(self.coboundaries, q)
        keep = extend_basis(self.b1, self.z1, q)
        self.h1_reps = self.z1[keep] if keep else np.zeros((0, D), dtype=np.int64)
        self.dim = len(self.h1_reps)
        self._coord_stack = np.vstack([self.b1, self.h1_reps])

    def _rows(self, at=slice(None)):
        """The consistency rows at the element positions `at` (all by
        default), for every generator: the `_defect` of `expand`, whose
        generator blocks are the unit vectors (given here, since on the
        trivial subgroup `expand` is 0 at its generator 1).
        (P * k * d, k * d) for P positions."""
        m, k = self.module, len(self.gens)
        D = k * m.dim
        units = np.eye(D, dtype=np.int64).reshape(k, m.dim, D)
        rows = _defect(m, self.expand, units, at)
        return rows.reshape(len(rows) * D, D)

    def _solve_z1(self):
        """Z^1 in generator coordinates: `kernel_mod` of the consistency
        rows at the probe elements, grown until Light's test passes."""
        m, q = self.module, self.q
        N, k, d = len(m.elements), len(self.gens), m.dim
        if N * (k * d) ** 2 <= SMALL_SYSTEM:
            return kernel_mod(self._rows(), q)
        # a few positions spread over the domain, off its two ends
        probe = (2 * np.arange(PROBES) + 1) * N // (2 * PROBES)
        r = k * d + 1
        while True:
            z1 = kernel_mod(self._rows(probe), q)
            if len(z1) >= r:
                raise AssertionError("the probe's new rows did not cut Z^1 candidates")
            r = len(z1)
            # Light's test of every candidate at every x and generator s
            at_gens = z1.reshape(r, k, d).transpose(1, 2, 0)
            defect = _defect(m, self._values(z1), at_gens)
            bad = np.flatnonzero(defect.any(axis=(1, 2, 3)))
            if not bad.size:
                return z1
            # none of them is in the probe, whose rows z1 solves: add a few,
            # spread over them, and the next kernel is smaller
            probe = np.concatenate([probe, bad[::-(-bad.size // PROBES)]])

    def _values(self, x):
        """(N, d, r): phi on every element for r generator-coordinate rows
        x, summed per generator block so that each sum is of d residue
        products, which int64 holds exactly."""
        m, q = self.module, self.q
        N, k, d = len(m.elements), len(self.gens), m.dim
        blocks = self.expand.reshape(N * d, k, d).transpose(1, 0, 2)
        at_gens = x.reshape(len(x), k, d).transpose(1, 2, 0)
        return ((blocks @ at_gens % q).sum(axis=0) % q).reshape(N, d, len(x))

    def gen_vector(self, cocycle: Cocycle) -> np.ndarray:
        return cocycle.value(np.array(self.gens)).reshape(-1) % self.q

    def cocycle_from_gen_vector(self, x) -> Cocycle:
        """The cocycle with generator values x, checked: x may lie off Z^1."""
        x = np.mod(as_index_array(x), self.q)
        return Cocycle(self.module, self._values(x.reshape(1, -1))[:, :, 0])

    def representative(self, i) -> Cocycle:
        """The i-th H^1 representative, a row of Z^1, so unchecked."""
        return Cocycle(self.module, self._values(self.h1_reps[i:i + 1])[:, :, 0],
                       validate=False)

    def representatives(self):
        return [self.representative(i) for i in range(self.dim)]

    def class_coords(self, cocycle: Cocycle) -> np.ndarray:
        """Coordinates of [cocycle] in the H^1 representative basis;
        ValueError for a cocycle on another module."""
        _same_module(self.module, cocycle)
        x = self.gen_vector(cocycle)
        sol = solve_mod(self._coord_stack.T, x, self.q)
        if sol is None:
            raise ValueError("cocycle is not in the computed Z^1")
        return sol[len(self.b1):] % self.q

    def is_coboundary(self, cocycle: Cocycle) -> bool:
        return not np.any(self.class_coords(cocycle))

    def classes_equal(self, a: Cocycle, b: Cocycle) -> bool:
        return np.array_equal(self.class_coords(a), self.class_coords(b))

    def map_matrix(self, func, target: "H1Data") -> np.ndarray:
        """Matrix (target-coords x self-coords) of a map on representatives."""
        cols = []
        for i in range(self.dim):
            img = func(self.representative(i))
            cols.append(target.class_coords(img))
        if not cols:
            return np.zeros((target.dim, 0), dtype=np.int64)
        return np.stack(cols, axis=1) % self.q


def h1(module: Rep) -> H1Data:
    """Z^1 basis, B^1 basis and H^1 representatives for a module over F_q."""
    return H1Data(module)


# ---------------------------------------------------------------------------
# conjugation action and the polarization involution
# ---------------------------------------------------------------------------


def conj_action(cocycle: Cocycle, ambient: Rep) -> Cocycle:
    """(c.phi)(g) = ambient(ctilde) . phi(ctilde^{-1} g ctilde).

    `ambient` is a module over the whole group whose restriction to the
    cocycle's domain must equal the cocycle's module exactly.  The result
    is a cocycle for any ctilde, involutive or not; on H^1 it depends only
    on the coset, since inner conjugation by H acts trivially.
    """
    m = cocycle.module
    g = m.group
    if ambient.domain != "G":
        raise ValueError("ambient module must be defined over the whole group")
    els = m.dom.array
    if (ambient.group is not g or ambient.mod != m.mod
            or not np.array_equal(ambient.arr(els), m.images)):
        raise ValueError("ambient action does not restrict to the cocycle's module")
    act_c = ambient.arr(g.ctilde)
    vals = cocycle.value(g.conj(g.inverse(g.ctilde), els)) @ act_c.T % m.mod
    return Cocycle(m, vals, validate=False)


def _involution_matrix(h1d: H1Data, func, name) -> np.ndarray:
    """The matrix of `func` on H^1, which must square to one there."""
    mat = h1d.map_matrix(func, h1d)
    if not np.array_equal(mat @ mat % h1d.q, np.eye(h1d.dim, dtype=np.int64)):
        raise AssertionError(f"{name} does not square to one on H^1")
    return mat


def conj_action_matrix(h1d: H1Data, ambient: Rep) -> np.ndarray:
    return _involution_matrix(h1d, lambda z: conj_action(z, ambient),
                              "conjugation action")


def hom_module(rho: Rep, sigma: Rep) -> Rep:
    """Hom(sigma, rho) with action g.X = rho(g) X sigma(g)^{-1} (vec row-major)."""
    return rho.tensor(sigma.dual())


def conjugate_hom_module(rho: Rep) -> Rep:
    """Hom(rho^c, rho): the coefficient module of lattice extension classes."""
    return hom_module(rho, conjugate_rep(rho))


def as_twisted_module(rho: Rep, twist: Rep) -> Rep:
    """The tensor-induced module As^+(rho) twisted by a character of G."""
    return tensor_induce(rho, +1).twist(twist)


def hom_to_as_matrix(n, mod):
    """Canonical iso Hom(rho^c, rho) -> (rho x rho^c)-space for 2-dim rho.

    Row-major vec of X maps by (I x omega)^{-1} with omega = [[0,1],[-1,0]];
    it intertwines the module actions exactly when det rho equals the
    declared twist character on H.
    """
    if n != 2:
        raise ValueError("canonical pairing iso implemented for 2-dim rho")
    omega_inv = np.array([[0, mod - 1], [1, 0]], dtype=np.int64)
    return np.kron(np.eye(n, dtype=np.int64), omega_inv) % mod


def polarization_involution(cocycle: Cocycle, rho: Rep) -> Cocycle:
    """The involution on extension classes induced by g -> ctilde g^{-1}
    ctilde^{-1} twisted by the determinant-compatible character, as
    P (-phi(ctilde g ctilde^{-1}))^T P^{-1} with P = [[0, 1], [-1, 0]].

    Only the input is checked: the cocycle must lie on Hom(rho^c, rho) for
    a 2-dimensional rho with rho(ctilde^2) scalar and P rho_perp P^{-1} =
    rho^c; the output is then a cocycle by construction.
    """
    if rho.dim != 2:
        raise ValueError("the polarization involution needs a 2-dimensional rho")
    m = cocycle.module
    rc = conjugate_rep(rho)
    if m != hom_module(rho, rc):
        raise ValueError("the polarization involution acts on cocycles in Hom(rho^c, rho)")
    g = rho.group
    mod = rho.mod
    # the coset representative models an involution: its square must act as
    # a scalar of rho, else the formula does not return to the same module
    c2 = rho.arr(g.op(g.ctilde, g.ctilde))
    if not np.array_equal(c2, c2[0, 0] * np.eye(rho.dim, dtype=np.int64) % mod):
        raise ValueError(
            "rho(ctilde^2) is not scalar: the polarization involution "
            "needs an involutive coset representative (up to center)"
        )
    P = np.array([[0, 1], [mod - 1, 0]], dtype=np.int64)
    P_inv = Mat(P, mod).inverse().a
    eps = rho.det_character()  # pinned by the compatibility condition on H
    # fixture validity: P rho_perp P^{-1} = rho^c exactly
    perp = dual_twist(rc, eps).images
    if not np.array_equal(P @ perp % mod @ P_inv % mod, rc.images):
        raise ValueError("P rho_perp P^{-1} = rho^c fails: invalid fixture")
    phi_cgc = cocycle.value(g.conj_ctilde(m.dom.array)).reshape(-1, 2, 2)
    vals = P @ (-phi_cgc % mod).transpose(0, 2, 1) % mod @ P_inv % mod
    return Cocycle(m, vals.reshape(len(vals), 4), validate=False)


def polarization_involution_matrix(h1d: H1Data, rho: Rep) -> np.ndarray:
    return _involution_matrix(h1d, lambda z: polarization_involution(z, rho),
                              "polarization involution")


# ---------------------------------------------------------------------------
# eigenspaces, Shapiro, restriction, Selmer subgroups
# ---------------------------------------------------------------------------


def eigenspace_split(h1d: H1Data, involution: np.ndarray):
    """H^1 = H^+ + H^- via the projectors (1 +- i)/2; rejects q = 2."""
    q, _ = validate_modulus(h1d.q)
    eye = np.eye(h1d.dim, dtype=np.int64)
    plus = kernel_mod((involution - eye) % q, q)
    minus = kernel_mod((involution + eye) % q, q)
    if len(plus) + len(minus) != h1d.dim:
        raise AssertionError("eigenspace dimensions do not add up")
    return plus, minus


class ShapiroResult:
    def __init__(self, matrix, h1_H, h1_G_ind, ind_module):
        self.matrix = matrix          # H^1(G, ind M) -> H^1(H, M) on class coords
        self.h1_H = h1_H
        self.h1_G_ind = h1_G_ind
        self.ind_module = ind_module


def shapiro(module: Rep) -> ShapiroResult:
    """Explicit iso H^1(G, ind M) -> H^1(H, M): restrict, project to the
    identity-coset component; verified bijective."""
    ind = induce(module)
    h1_H = h1(module)
    h1_G = h1(ind)
    d = module.dim

    def down(z: Cocycle) -> Cocycle:
        return Cocycle(module, z.value(module.dom.array)[:, :d], validate=False)

    mat = h1_G.map_matrix(down, h1_H)
    if h1_G.dim != h1_H.dim:
        raise AssertionError("Shapiro dimensions disagree")
    if h1_G.dim and len(rref_mod(mat, h1_H.q)[1]) != h1_G.dim:
        raise AssertionError("Shapiro map is not bijective")
    return ShapiroResult(mat, h1_H, h1_G, ind)


def restriction_matrix(h1_big: H1Data, h1_small: H1Data) -> np.ndarray:
    """Matrix of restriction H^1(dom, M) -> H^1(sub, M|sub) on class coords."""
    return h1_big.map_matrix(lambda z: z.restrict(h1_small.module), h1_small)


class SelmerStructure:
    """(decomposition subgroup, local condition) pairs, checked where made:
    a subgroup is a list or tuple of integer element indices, a local
    condition (a subspace of H^1(D, M|D)) 'full', 'zero' or a list of such
    integer vectors in the computed H^1(D) basis.  Anything else, a bool,
    float or str entry included, is a ValueError; `selmer_subgroup` checks
    the vectors' length, dim H^1(D)."""

    def __init__(self, conditions):
        self.conditions = []
        for sub, cond in conditions:
            sub = _indices(sub, "subgroup")
            if not (isinstance(cond, str) and cond in ("full", "zero")):
                if not isinstance(cond, (list, tuple)):
                    raise ValueError(f"local condition {cond!r} is neither 'full', "
                                     "'zero' nor a list of integer vectors")
                cond = [list(_indices(v, "local condition vector")) for v in cond]
            self.conditions.append((sub, cond))

    @staticmethod
    def from_json(obj) -> "SelmerStructure":
        if not isinstance(obj, list):
            raise ValueError("a Selmer structure is a JSON list of local conditions")
        try:
            return SelmerStructure([(c["subgroup"], c["local_condition"]) for c in obj])
        except (TypeError, KeyError) as exc:
            raise ValueError(f"malformed local condition: {exc!r}") from exc

    def to_json(self):
        return [{"subgroup": list(sub), "local_condition": cond}
                for sub, cond in self.conditions]


def _indices(x, what) -> tuple[int, ...]:
    """A list or tuple of integers as a tuple of ints; ValueError otherwise."""
    try:
        if isinstance(x, (list, tuple)):
            return tuple(map(as_index, x))
    except ValueError:
        pass
    raise ValueError(f"{what} {x!r} is not a list of integers")


def _local_subspace(cond, dim, q) -> np.ndarray:
    """Rows spanning a checked local condition, "zero" or integer vectors
    (reduced mod q as Python ints); ValueError unless each has length dim."""
    if cond == "zero":
        return np.zeros((0, dim), dtype=np.int64)
    if any(len(v) != dim for v in cond):
        raise ValueError(f"local condition {cond!r} needs vectors of length "
                         f"dim H^1(D) = {dim}")
    rows = [[x % q for x in v] for v in cond]
    return np.array(rows, dtype=np.int64).reshape(len(cond), dim)


def selmer_subgroup(h1d: H1Data, structure: SelmerStructure) -> np.ndarray:
    """Kernel of the restrictions-to-local-quotient maps, as rows in the
    H^1 coordinate space."""
    q = h1d.q
    rows = []
    for sub, cond in structure.conditions:
        submod = h1d.module.restrict(sub)
        if cond == "full":
            continue
        h1_loc = h1(submod)
        local = _local_subspace(cond, h1_loc.dim, q)
        if h1_loc.dim == 0:
            continue
        ann = kernel_mod(local, q) if local.size else np.eye(h1_loc.dim, dtype=np.int64)
        if ann.size:
            rows.append(ann @ restriction_matrix(h1d, h1_loc) % q)
    if not rows:
        return np.eye(h1d.dim, dtype=np.int64)
    sys = np.vstack(rows)
    return kernel_mod(sys, q)
