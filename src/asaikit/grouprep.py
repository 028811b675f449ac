"""Finite groups with a distinguished index-2 subgroup and their matrix
representations over F_q / Z/q^n.

A group is its product on index arrays, `FiniteGroup.prod(a, b)`.  A dense
table (a user's JSON fixture, range-checked when built) answers it by a
gather; a group with a closed-form law (`fixtures.semidirect_group`, so
every shipped group) evaluates the law on per-element coordinate arrays and
stores no n x n array.  Every map over group elements -- conjugation by
ctilde, rho^c, the dual, induction, tensor induction -- is one product or
gather through index arrays (`prod`, `inv`, the maps by ctilde, `Rep.pos`,
the H mask) plus a batched product over the image stack, reduced mod m
between factors.  The index work that depends on the group and one subgroup
alone -- its generators, the products x s with them, the jump walk of H^1 --
is done once per (group, subgroup), in `Domain`.

The associativity of a dense table and every representation are checked on
generators (Light's test), exactly: the elements c with (x y) c = x (y c)
for all x, y -- or with rho(x c) = rho(x) rho(c) for all x -- are closed
under products, so checking them on a generating set checks them on the
whole group.  A closed-form law comes with a proof of associativity
instead, and its identity and inverses.  A rep is checked where it enters
(a builder, a JSON load, `make_character`, a caller's `Rep(...)`); a rep
derived from checked ones is a representation by construction and is not
checked again, and a restriction only checks that its target is a
subgroup.  A `Rep` stores its ring Z/q^n as `q` and `precision`.  The two
canonical extensions of rho (x) rho^c from the index-2 subgroup H to G are
``tensor_induce(rho, +1)`` and ``tensor_induce(rho, -1)``; they differ by
the sign of the action on the nontrivial coset.

Every Hom space -- intertwiners, End (Schur), isotypic lines, invariant
pairings, and in `polarization` the polarization witnesses -- is the kernel
of one system, ``hom_system(r1, r2)``, solved by one routine,
`hom_kernel(r1, r2, symmetry)`, which appends ``symmetry_rows`` when a
transpose symmetry is imposed.  Each kernel is solved once per pair of
modules and symmetry, by content, and read back from the domain's memo
(`Domain.solved`) on every later call.
"""

from __future__ import annotations

import functools
import itertools
import warnings

import numpy as np

from .exactalg import (
    Mat,
    as_index,
    as_index_array,
    as_sign,
    charpoly_stack,
    check_int64_products,
    kernel_gens,
    read_only,
    row_space_mod,
    validate_modulus,
)


# rows per block of Light's test on a dense table
_LIGHT_BLOCK = 64


class FiniteGroup:
    """A finite group: indexed elements, a product on index arrays, an
    index-2 subgroup H, and a chosen coset representative ctilde outside H.

    `prod(a, b)` multiplies index arrays (or ints) broadcast together.  A
    dense table (user JSON, say) answers it by the gather `mul[a, b]`, has
    its shape and range checked on construction (even unvalidated), gets
    its identity and inverses by a scan of the table and its associativity
    by Light's test.  A group with a closed-form law passes `mul=None` and
    `closed_form=(one, inv, law)`: its identity, its inverse array and the
    law, a function of two index arrays.  Its constructor has proved the
    law associative, so `validate` skips Light's test and checks the rest
    in O(n |S|) products, S a generating set, and the group holds no n x n
    array.  `mul` reads as the dense table of every group; for a
    closed-form one it is built from the law on each access, for
    serialization and tests.  `H` is the sorted read-only index array of the
    subgroup and `h_mask` its mask, built and range-checked on construction,
    where ctilde is range-checked too.
    """

    def __init__(self, elements, mul, H, ctilde, validate=True, closed_form=None):
        self.elements = list(elements)
        self.n = len(self.elements)
        if closed_form is None:
            table = as_index_array(mul)
            # the caller's own int64 array comes back as is: freeze a copy
            table = read_only(table.copy() if table is mul else table)
            if table.shape != (self.n, self.n):
                raise ValueError("multiplication table has the wrong shape")
            if table.size and (table.min() < 0 or table.max() >= self.n):
                raise ValueError("multiplication table has entries outside the group")
            self._table = table
            self._law = lambda a, b: table[a, b]
            self.one = self._find_identity()
            self.inv = self._find_inverses()
        else:
            one, inv, self._law = closed_form
            self._table = None
            self.one = int(one)
            self.inv = read_only(np.array(inv, dtype=np.int64))
        self.h_mask = read_only(self._mask(H, "H has elements outside the group"))
        self.H = read_only(np.flatnonzero(self.h_mask))
        self.ctilde = as_index(ctilde)
        # ctilde_maps and induce index by ctilde, where -1 would read element n - 1
        if not 0 <= self.ctilde < self.n:
            raise ValueError("ctilde lies outside the group")
        self._domains: dict = {}
        # closures of greedy generator prefixes, shared by every subgroup's run
        self._closures: dict[tuple[int, ...], np.ndarray] = {}
        if validate:
            self.validate()

    # -- construction checks -------------------------------------------------

    def _find_identity(self):
        idx = np.arange(self.n)
        for e in range(self.n):
            row, col = self._table[e], self._table[:, e]
            if np.array_equal(row, idx) and np.array_equal(col, idx):
                return e
        raise ValueError("multiplication table has no identity")

    def _find_inverses(self):
        # g needs exactly one right inverse j, and j g = 1 as well
        is_one = self._table == self.one
        inv = is_one.argmax(axis=1)
        ok = (is_one.sum(axis=1) == 1) & is_one[inv, np.arange(self.n)]
        if not ok.all():
            g = int(np.argmin(ok))
            raise ValueError(f"element {g} has no two-sided inverse")
        return read_only(inv)

    def _light_test(self):
        """(x y) s = x (y s) for all x, y and each generator s, in blocks of
        rows x, so that no temporary has more than _LIGHT_BLOCK n entries."""
        for s in self.generators():
            col = self._table[:, s]
            for start in range(0, self.n, _LIGHT_BLOCK):
                rows = self._table[start:start + _LIGHT_BLOCK]
                if not np.array_equal(col[rows], rows[:, col]):
                    raise ValueError("multiplication table is not associative")

    def validate(self):
        n = self.n
        xs = np.arange(n)
        if self._table is not None:
            self._light_test()
        # O(n |S|) products from here on; a scan has already found the
        # identity and inverses of a dense table, these check supplied ones.
        # The product is associative (proved, or by Light's test), and an
        # associative product with a left identity and left inverses is a
        # group's: its identity and inverses are two-sided.
        if not (0 <= self.one < n and (self.prod(self.one, xs) == xs).all()):
            raise ValueError("multiplication table has no identity")
        if self.inv.shape != (n,) or self.inv.min() < 0 or self.inv.max() >= n:
            raise ValueError("inverses lie outside the group")
        bad = self.prod(self.inv, xs) != self.one
        if bad.any():
            raise ValueError(f"element {int(np.argmax(bad))} has no two-sided inverse")
        self.generators()
        if 2 * len(self.H) != n:
            raise ValueError("H does not have index 2")
        if not self.h_mask[self.one]:
            raise ValueError("H does not contain the identity")
        # in a finite group a subset is a subgroup iff the closure of its
        # greedy generators stays inside it
        try:
            self.generators("H")
        except ValueError:
            raise ValueError("H is not closed under multiplication") from None
        if self.h_mask[self.ctilde]:
            raise ValueError("ctilde must lie outside H")

    # -- basic operations ------------------------------------------------------

    def prod(self, a, b):
        """a b, elementwise on index arrays (or ints) broadcast together.
        The unchecked law, for index arrays the group's own code has built
        (every search and validation calls it): `op`, `inverse`, `conj` and
        `conj_ctilde` check a caller's elements first."""
        return self._law(a, b)

    @property
    def mul(self) -> np.ndarray:
        """The dense table, mul[a, b] = a b: a dense group's own, else built
        from the law on each access (n^2 entries, never kept)."""
        return self._table if self._table is not None else self._dense_table()

    def _dense_table(self) -> np.ndarray:
        xs = np.arange(self.n)
        return read_only(self.prod(xs[:, None], xs))

    def _elements(self, g):
        """g (an element or an index array) as int64: ValueError unless g is
        an integer or an integer array (`as_index_array`, so a bool or a
        float is refused), KeyError for anything outside 0..n-1."""
        g = as_index_array(g)
        # read as unsigned, a negative index lies past n as well
        if (g.view(np.uint64) >= self.n).any():
            raise KeyError(f"element {g} not in the group")
        return g

    def op(self, g, h):
        return int(self.prod(self._elements(g), self._elements(h)))

    def inverse(self, g):
        return int(self.inv[self._elements(g)])

    def conj(self, c, g):
        """c g c^{-1}, elementwise on an index array g."""
        c = self._elements(c)
        x = self.prod(self.prod(c, self._elements(g)), self.inv[c])
        return int(x) if np.ndim(x) == 0 else x

    @functools.cached_property
    def ctilde_maps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x ctilde^{-1}, ctilde x and ctilde x ctilde^{-1} over all x, as
        index arrays: induction, tensor induction and rho^c read these."""
        xs = np.arange(self.n)
        c_inv = self.inv[self.ctilde]
        left = self.prod(self.ctilde, xs)
        return (read_only(self.prod(xs, c_inv)), read_only(left),
                read_only(self.prod(left, c_inv)))

    def conj_ctilde(self, g):
        """ctilde g ctilde^{-1}, elementwise on an index array g."""
        x = self.ctilde_maps[2][self._elements(g)]
        return int(x) if np.ndim(x) == 0 else x

    @functools.cached_property
    def H_set(self) -> frozenset:
        """H as a frozenset of ints, derived from `H` on first use."""
        return frozenset(self.H.tolist())

    def _mask(self, subset, outside) -> np.ndarray:
        """The boolean mask of a subset of G given by any iterable of integer
        indices (`as_index_array`: a float, str or bool is refused, not
        truncated); ValueError `outside` for an index outside 0..n-1."""
        idx = as_index_array(subset if isinstance(subset, np.ndarray) else list(subset))
        if idx.ndim != 1:
            raise ValueError(f"{subset!r} is not a list of integers")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError(outside)
        mask = np.zeros(self.n, dtype=bool)
        mask[idx] = True
        return mask

    def _search(self, frontier, steps, seen):
        """The one breadth-first search: from `frontier` by right products
        with `steps`, marking the mask `seen`.  Yields each layer as (a, a t,
        index of t), each unseen a t once, through its least (row-major)
        (frontier element, step) pair: np.minimum.at keeps it in linear time
        and in any write order, with no sort and no numpy.ma import."""
        first = np.empty(self.n, dtype=np.int64)
        while frontier.size and steps.size:
            prods = self.prod(frontier[:, None], steps).reshape(-1)
            fresh = np.flatnonzero(~seen[prods])
            if not fresh.size:
                return
            new = prods[fresh]
            first[new] = prods.size
            np.minimum.at(first, new, fresh)
            keep = first[new] == fresh
            fresh, new = fresh[keep], new[keep]
            seen[new] = True
            yield frontier[fresh // steps.size], new, fresh % steps.size
            frontier = new

    def closure(self, gens, seen=None):
        """Boolean mask of the closure of gens, 1 and the mask `seen` under
        right products with gens (the subgroup they generate), by `_search`;
        a `seen` closed under some of gens saves the layers that rebuild it."""
        gens = as_index_array(gens)
        seen = np.zeros(self.n, dtype=bool) if seen is None else seen.copy()
        seen[gens] = True
        seen[self.one] = True
        for _ in self._search(np.flatnonzero(seen), gens, seen):
            pass
        return seen

    def _prefix_closure(self, gens: tuple[int, ...]) -> np.ndarray:
        """The closure of a greedy generator prefix, memoized, from the
        closure of the prefix one shorter."""
        if gens not in self._closures:
            seen = self._prefix_closure(gens[:-1]) if gens else None
            self._closures[gens] = read_only(self.closure(gens, seen))
        return self._closures[gens]

    def _greedy_generators(self, inside) -> tuple[int, ...]:
        """The greedy generating set of the subset with mask `inside`: its
        least element outside the closure so far, until the closure is the
        subset; ValueError once the closure leaves it.  Runs on different
        subsets share the closures of their common prefixes."""
        gens: tuple[int, ...] = ()
        have = self._prefix_closure(gens)
        while not (have & ~inside).any():
            rest = inside & ~have
            if not rest.any():
                return gens or (self.one,)
            gens += (int(rest.argmax()),)
            have = self._prefix_closure(gens)
        raise ValueError("subset is not a subgroup")

    def domain_key(self, subset):
        """"G", "H" or the sorted element tuple of a subset of G: the key of
        its `Domain`.  ValueError for an element that is not an integer
        (7.5 or "7" is refused, not truncated) or lies outside the group."""
        if isinstance(subset, str):
            if subset not in ("G", "H"):
                raise ValueError("domain must be 'G', 'H' or a list of elements")
            return subset
        # a stored key is a tuple of ints; 7.0 == 7 and hashes alike, so a
        # tuple holding anything else goes through `_mask`, which refuses it
        if (isinstance(subset, tuple) and subset in self._domains
                and all(type(x) is int for x in subset)):
            return self._domains[subset].key  # the key, or equal to it
        mask = self._mask(subset, "domain has elements outside the group")
        if mask.all():
            return "G"
        if np.array_equal(mask, self.h_mask):
            return "H"
        return tuple(np.flatnonzero(mask).tolist())

    def domain(self, key) -> "Domain":
        """The memoized `Domain` of a key from `domain_key`."""
        if key not in self._domains:
            self._domains[key] = Domain(self, key)
        return self._domains[key]

    def generators(self, subset=None) -> tuple[int, ...]:
        """Small generating set of the subgroup `subset` (default: G), greedy;
        (one,) for the trivial subgroup.  Memoized per subset, in its
        `Domain`."""
        try:
            key = self.domain_key("G" if subset is None else subset)
        except ValueError:
            raise ValueError("subset is not a subgroup") from None
        return self.domain(key).gens


class Domain:
    """A subset of G that representations live on -- its `key` is "G", "H"
    or a sorted element tuple, its `elements` a sorted read-only int64 index
    array (H's is `FiniteGroup.H`) -- with the index work on it that depends
    on the group alone, done once per group: element positions, greedy
    generators, the positions of the products x s with them, and the jump
    walk of H^1.  Every `Rep` on the subset shares it.

    It also holds the memo of answers that depend only on the content of
    modules on the subset (`solved`): H^1 (`cohomology.h1`) and the Hom
    kernel (`hom_kernel`).  A key is the exact content, `Rep.content_key`
    -- the modulus, the image stack's shape and its bytes -- tagged by the
    answer, plus r1's domain key and content for a Hom pair.  Looking up
    the full bytes is equality of content, so a hit is never another
    module's answer.  The memo lives as long as the group does and needs
    no eviction; the answers in it are read-only.
    """

    def __init__(self, group: FiniteGroup, key):
        self.group = group
        self.key = key
        n = group.n
        self.elements = (read_only(np.arange(n)) if key == "G" else group.H if key == "H"
                         else read_only(np.array(key, dtype=np.int64)))
        pos = np.full(n, -1, dtype=np.int64)
        pos[self.elements] = np.arange(self.elements.size)
        self.pos = read_only(pos)
        self._solved: dict = {}

    def solved(self, key, solve):
        """The answer for an exact content key: `solve()` on the first call
        with the key, read back on every later one."""
        if key not in self._solved:
            self._solved[key] = solve()
        return self._solved[key]

    @functools.cached_property
    def gens(self) -> tuple[int, ...]:
        """Greedy generators; ValueError if the subset is not a subgroup."""
        return self.group._greedy_generators(self.pos >= 0)

    def subgroup_gens(self) -> np.ndarray:
        """The generators; ValueError unless the subset is a subgroup."""
        if self.pos[self.group.one] < 0:
            raise ValueError("domain does not contain the identity")
        try:
            return np.array(self.gens)
        except ValueError:
            raise ValueError("domain is not closed under multiplication") from None

    @functools.cached_property
    def gen_pos(self) -> np.ndarray:
        """(N, k): the position of x s in the subgroup, for each element x
        and generator s."""
        prods = self.group.prod(self.elements[:, None], np.array(self.gens))
        return read_only(self.pos[prods])

    @functools.cached_property
    def walk(self):
        """(jump, keep, layers): the jump walk that `cohomology.H1Data`
        expands cocycles along.

        jump[i, j] = s_i^(2^j) for each generator s_i and 2^j < N, keep
        marks the jumps other than 1.  The layers are the group's one
        search, `FiniteGroup._search`, from the identity over the kept jumps
        (generator-major), in positions: (a, a t, kept-jump index of t),
        each a t through its first (frontier element, jump) pair in
        row-major order."""
        g = self.group
        gens = np.array(self.gens)
        N = len(self.elements)
        J = (N - 1).bit_length()
        jump = np.empty((len(gens), J), dtype=np.int64)
        t = gens
        for j in range(J):
            if j:
                t = g.prod(t, t)
            jump[:, j] = t
        keep = jump != g.one  # once t = 1 every later square is 1 too
        jumps = jump[keep]
        seen = np.arange(g.n) == g.one
        layers = tuple((self.pos[a], self.pos[new], t)
                       for a, new, t in g._search(np.array([g.one]), jumps, seen))
        if not np.array_equal(np.flatnonzero(seen), self.elements):
            raise AssertionError("the jump walk does not reach every element of the domain")
        return read_only(jump), read_only(keep), layers


class Rep:
    """A subgroup of G acting by matrices over Z/m: a representation of G,
    of H, or of any subgroup given by its element indices (a decomposition
    group, say).  It is also the coefficient module of H^1.

    `domain` is "G" or "H" for those two subgroups and the sorted element
    tuple otherwise; images are given and stored as one stack, a matrix per
    element of `elements` in that order, and are checked on construction,
    on generators (Light's test), exactly.  The modulus is q^precision.
    """

    def __init__(self, group: FiniteGroup, domain, images, mod, validate=True):
        self.q, self.precision = validate_modulus(mod)
        self.group = group
        self.mod = int(mod)
        self.domain = group.domain_key(domain)
        self.dom = group.domain(self.domain)
        self.elements = self.dom.elements
        self.pos = self.dom.pos
        arr = as_index_array(images)
        if (arr.ndim != 3 or arr.shape[0] != len(self.elements)
                or arr.shape[1] != arr.shape[2]):
            raise ValueError("images must be one square matrix per domain element")
        self.images = read_only(np.mod(arr, self.mod))
        self.dim = int(self.images.shape[1])
        check_int64_products(self.dim, self.mod)
        if validate:
            self.validate()

    def validate(self):
        one = self.group.one
        if self.pos[one] >= 0 and not np.array_equal(
                self.arr(one), np.eye(self.dim, dtype=np.int64)):
            raise ValueError("identity does not map to the identity matrix")
        gens = self.dom.subgroup_gens()
        # rho(x s) = rho(x) rho(s) for every x and generator s (Light's test)
        lhs = self.images[:, None] @ self.images[self.pos[gens]][None] % self.mod
        if not np.array_equal(lhs, self.images[self.dom.gen_pos]):
            raise ValueError("images do not respect the multiplication table")

    @property
    def gens(self) -> tuple[int, ...]:
        """Generators of the domain; ValueError if it is not a subgroup."""
        return self.dom.gens

    # -- access ---------------------------------------------------------------

    def index(self, g):
        """Positions in `elements` of g (an element or an index array):
        ValueError unless g is an integer or an integer array
        (`as_index_array`, so a bool or a float is refused), KeyError for
        anything outside the domain, a negative index included."""
        g = as_index_array(g)
        try:
            p = self.pos[g]
        except IndexError:  # past either end of the group
            p = -1
        # pos counts a negative g from its end: test g's sign with p's
        if ((g | p) < 0).any():
            raise KeyError(f"element {g} not in domain")
        return p

    def arr(self, g):
        """The image of g, or the stack of images of an index array g."""
        return self.images[self.index(g)]

    def value(self, g):
        if self.dim != 1:
            raise ValueError("value() is for characters (dim 1)")
        v = self.arr(g)[..., 0, 0]
        return int(v) if v.ndim == 0 else v

    def __eq__(self, other):
        return (
            isinstance(other, Rep)
            and self.group is other.group
            and self.domain == other.domain
            and self.mod == other.mod
            and np.array_equal(self.images, other.images)
        )

    def __repr__(self):
        return f"Rep(dim={self.dim}, mod={self.mod}, domain={self.domain})"

    @property
    def content_key(self) -> tuple:
        """(modulus, image stack shape, image bytes): two reps on one
        `Domain` are equal exactly when these are."""
        return self.mod, self.images.shape, self.images.tobytes()

    # -- derived reps -----------------------------------------------------------

    def restrict(self, elements) -> "Rep":
        """The restriction to a subgroup of the domain: "H" or a list of
        elements, normalized once to its memoized `Domain`.  ValueError
        unless the target is a subgroup inside the domain."""
        try:
            key = self.group.domain_key(elements)
            dom = self.group.domain(key)
            at = self.index(dom.elements)
        except (ValueError, KeyError):
            raise ValueError("restriction target is not inside the domain") from None
        dom.subgroup_gens()
        return Rep(self.group, key, self.images[at], self.mod, validate=False)

    def restrict_to_H(self) -> "Rep":
        """The restriction to H."""
        return self if self.domain == "H" else self.restrict("H")

    def reduce(self, q) -> "Rep":
        """The reduction modulo q, a prime power dividing the modulus."""
        if self.mod % q:
            raise ValueError(f"{q} does not divide the modulus {self.mod}")
        return Rep(self.group, self.domain, self.images % q, q, validate=False)

    def twist(self, chi: "Rep") -> "Rep":
        """rho tensor chi for a character chi on the same (or larger) domain."""
        if chi.dim != 1:
            raise ValueError("twist by a character only")
        _check_same_group_and_modulus(self, chi)
        vals = chi.value(self.elements)
        imgs = (self.images * vals[:, None, None]) % self.mod
        return Rep(self.group, self.domain, imgs, self.mod, validate=False)

    def dual(self) -> "Rep":
        """g -> (rho(g)^{-1})^T = rho(g^{-1})^T."""
        imgs = self.arr(self.group.inv[self.elements]).transpose(0, 2, 1)
        return Rep(self.group, self.domain, imgs, self.mod, validate=False)

    def tensor(self, other: "Rep") -> "Rep":
        _check_same_group_and_modulus(self, other)
        if self.domain != other.domain:
            raise ValueError("tensor needs matching domains")
        imgs = kron_stack(self.images, other.images, self.mod)
        return Rep(self.group, self.domain, imgs, self.mod, validate=False)

    def det_character(self) -> "Rep":
        """det rho, read off the charpolys: det a = (-1)^dim c_dim."""
        c = charpoly_stack(self.images, self.mod)[:, self.dim]
        vals = (-1) ** self.dim * c % self.mod
        return Rep(self.group, self.domain, vals.reshape(-1, 1, 1), self.mod,
                   validate=False)


def _check_same_group_and_modulus(rho: Rep, other: Rep):
    if other.group is not rho.group:
        raise ValueError("group mismatch")
    if other.mod != rho.mod:
        raise ValueError("modulus mismatch")


def kron_stack(a, b, mod) -> np.ndarray:
    """Elementwise Kronecker product of two stacks of matrices, mod m."""
    n, r1, c1 = a.shape
    _, r2, c2 = b.shape
    return np.einsum("aij,akl->aikjl", a, b).reshape(n, r1 * r2, c1 * c2) % mod


def make_character(group: FiniteGroup, domain: str, values, mod) -> Rep:
    """Character from its values, one per domain element in domain order."""
    return Rep(group, domain, as_index_array(values).reshape(-1, 1, 1), mod)


def trivial_character(group: FiniteGroup, domain, mod) -> Rep:
    """The trivial character on a domain: "G", "H" or a list of elements;
    ValueError unless the domain is a subgroup."""
    key = group.domain_key(domain)
    group.domain(key).subgroup_gens()
    ones = np.ones((len(group.domain(key).elements), 1, 1), dtype=np.int64)
    return Rep(group, key, ones, mod, validate=False)


def coset_sign_character(group: FiniteGroup, mod) -> Rep:
    vals = np.where(group.h_mask, 1, mod - 1).astype(np.int64).reshape(-1, 1, 1)
    return Rep(group, "G", vals, mod, validate=False)


def power_character(chi: Rep, k: int) -> Rep:
    k = as_index(k)
    vals, where = np.unique(chi.images[:, 0, 0], return_inverse=True)
    powers = np.array([pow(int(x), k, chi.mod) for x in vals], dtype=np.int64)
    return Rep(chi.group, chi.domain, powers[where].reshape(-1, 1, 1), chi.mod,
               validate=False)


def conjugate_rep(rho: Rep) -> Rep:
    """rho^c(h) = rho(ctilde h ctilde^{-1}), using the group's fixed ctilde."""
    g = rho.group
    if rho.domain == "G":
        warnings.warn("conjugating a representation of the whole group: "
                      "the result is isomorphic to the input", stacklevel=2)
    imgs = rho.arr(g.conj_ctilde(rho.elements))
    return Rep(g, rho.domain, imgs, rho.mod, validate=False)


def dual_twist(rho: Rep, psi: Rep | None) -> Rep:
    """g -> psi(g) * (rho(g)^{-1})^T: the dual, then the twist by psi;
    psi=None gives the plain dual."""
    return rho.dual() if psi is None else rho.dual().twist(psi)


def induce(rho: Rep) -> Rep:
    """Induction from H to G on V + V with coset representatives {1, ctilde}.

    For h in H the action is block-diagonal (rho(h), rho^c(h)); an element g
    outside H sends x + y to rho(g ctilde^{-1}) y + rho(ctilde g) x.
    """
    if rho.domain != "H":
        raise ValueError("induce expects a representation of H")
    g = rho.group
    d = rho.dim
    on_h = g.h_mask
    right_inv, left, conj = g.ctilde_maps
    imgs = np.zeros((g.n, 2 * d, 2 * d), dtype=np.int64)
    imgs[on_h, :d, :d] = rho.images
    imgs[on_h, d:, d:] = rho.arr(conj[on_h])
    imgs[~on_h, :d, d:] = rho.arr(right_inv[~on_h])
    imgs[~on_h, d:, :d] = rho.arr(left[~on_h])
    return Rep(g, "G", imgs, rho.mod, validate=False)


def _swap_perm(n) -> np.ndarray:
    """The flip x tensor y -> y tensor x as a permutation of the n^2
    coordinates; it is its own inverse."""
    return np.arange(n * n).reshape(n, n).T.reshape(-1)


def swap_matrix(n, mod) -> np.ndarray:
    """The flip x tensor y -> y tensor x on an n^2-dimensional space."""
    return np.eye(n * n, dtype=np.int64)[_swap_perm(n)] % mod


def tensor_induce(rho: Rep, sign: int) -> Rep:
    """The two canonical extensions of rho (x) rho^c to G (sign = +1 or -1).

    On H the action is rho(h) (x) rho^c(h); the chosen coset representative
    sends x (x) y to +- y (x) rho(ctilde^2) x.  Off H the image is
    rho(g ctilde^{-1}) (x) rho(ctilde g) followed by the swap, applied as a
    column permutation times the sign.
    """
    if rho.domain != "H":
        raise ValueError("tensor induction expects a representation of H")
    unit = as_sign(sign)
    if unit is None:
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    g = rho.group
    d = rho.dim
    on_h = g.h_mask
    right_inv, left, conj = g.ctilde_maps
    imgs = kron_stack(rho.arr(np.where(on_h, np.arange(g.n), right_inv)),
                      rho.arr(np.where(on_h, conj, left)), rho.mod)
    # M @ swap_matrix(d) permutes the columns of M
    imgs[~on_h] = unit * imgs[~on_h][:, :, _swap_perm(d)] % rho.mod
    return Rep(g, "G", imgs, rho.mod, validate=False)


def transfer_character(chi: Rep) -> Rep:
    """As^+ of a character: chi(g)chi(ctilde g ctilde^{-1}) on H, chi(g^2) off H."""
    if chi.dim != 1 or chi.domain != "H":
        raise ValueError("transfer expects a character of H")
    g = chi.group
    xs = np.arange(g.n)
    on_h = g.h_mask
    first = chi.value(np.where(on_h, xs, g.prod(xs, xs)))
    second = chi.value(g.conj_ctilde(np.where(on_h, xs, g.one)))
    vals = np.where(on_h, first * second % chi.mod, first)
    return Rep(g, "G", vals.reshape(-1, 1, 1), chi.mod, validate=False)


def hom_system(r1: Rep, r2: Rep) -> np.ndarray:
    """The linear system of Hom(r1, r2) = {X : X r1(s) = r2(s) X}.

    X is a d2 x d1 matrix, vectorized row-major; the rows are
    kron(I, r1(s)^T) - kron(r2(s), I) for each generator s of r2's domain,
    in `r2.gens` order, reduced mod m.  Every Hom space of the package --
    intertwiners, End for Schur, invariant lines, invariant pairings and
    polarization witnesses -- is the kernel of this one system, solved by
    `hom_kernel`.
    """
    if r1.group is not r2.group or r1.mod != r2.mod:
        raise ValueError("Hom needs the same group and modulus")
    gens = np.array(r2.gens)
    k, d1, d2 = len(gens), r1.dim, r2.dim
    sys = np.zeros((k, d2, d1, d2, d1), dtype=np.int64)
    # -r2(s) on the block-diagonal pattern (i, j) <- (i', j), then r1(s)^T
    # on the diagonal blocks (i, j) <- (i, j')
    sys[:, :, np.arange(d1), :, np.arange(d1)] = -r2.arr(gens)
    sys[:, np.arange(d2), :, np.arange(d2), :] += r1.arr(gens).transpose(0, 2, 1)
    return sys.reshape(k * d2 * d1, d2 * d1) % r2.mod


def symmetry_rows(d, mod, antisymmetric) -> np.ndarray:
    """Rows cutting the symmetric (X^T = X) or antisymmetric (X^T = -X)
    d x d matrices out of all of them, X vectorized row-major."""
    i, j = np.triu_indices(d, 0 if antisymmetric else 1)
    rows = np.zeros((len(i), d * d), dtype=np.int64)
    r = np.arange(len(i))
    rows[r, i * d + j] = 1
    off = i != j
    rows[r[off], (j * d + i)[off]] = 1 if antisymmetric else mod - 1
    return rows


def hom_kernel(r1: Rep, r2: Rep, symmetry=None) -> tuple[tuple[np.ndarray, int], ...]:
    """Generators (vec, annihilator) of Hom(r1, r2), the kernel of
    `hom_system(r1, r2)`, or for `symmetry` +1 or -1 of its symmetric or
    antisymmetric part, with `symmetry_rows` appended: the package's one
    route to a Hom kernel.

    It is solved once per pair of modules and symmetry and kept in the memo
    of r2's `Domain` (whose generators the system is written on), under the
    symmetry, r1's domain key and the content keys of both; every later call
    with equal modules, built anywhere, reads it back.  The vectors are
    read-only."""
    if r1.group is not r2.group or r1.mod != r2.mod:
        raise ValueError("Hom needs the same group and modulus")
    if symmetry is not None and (as_index(symmetry) not in (1, -1) or r1.dim != r2.dim):
        raise ValueError(f"symmetry {symmetry!r} is not +1 or -1 on square maps")

    def solve():
        sys = hom_system(r1, r2)
        if symmetry is not None:
            sys = np.vstack([sys, symmetry_rows(r2.dim, r2.mod, symmetry == -1)])
        return tuple((read_only(v), ann) for v, ann in kernel_gens(sys, r2.mod))

    key = ("hom", symmetry, r1.domain) + r1.content_key + r2.content_key
    return r2.dom.solved(key, solve)


def intertwiner_space(r1: Rep, r2: Rep) -> list[Mat]:
    """Basis of {M : M r1(g) = r2(g) M for all g} (maps V1 -> V2), read off
    `hom_kernel`: solved once per pair of modules by content, the memo
    living as long as the group."""
    if r1.group is not r2.group or r1.domain != r2.domain or r1.mod != r2.mod:
        raise ValueError("intertwiners need the same group, domain and modulus")
    return [Mat(v.reshape(r2.dim, r1.dim), r1.mod) for v, _ in hom_kernel(r1, r2)]


_RANDOM_TRIES = 200


def contains_invertible(basis: list[Mat], rng=None):
    """The first invertible candidate of the span of `basis`, or None.

    The candidates, each tested by its own `Mat.is_invertible`, are the
    basis itself, then for two generators the pencil b0 + c b1 (c = 1..q-1),
    else 200 combinations with coefficients drawn from `rng` (default seed
    0; only tests pass one), one draw per try, made lazily up to the first
    hit.  A matrix over Z/q^n is invertible iff its reduction mod q is,
    and once b0 and b1 are singular a b0 + b b1 with a a unit is invertible
    iff b0 + (b/a) b1 is: so for at most two generators None means that no
    element of the span is invertible.  For three or more it means only
    that the tries missed.
    """
    def combinations():
        if len(basis) < 2:
            return
        mod = basis[0].mod
        if len(basis) == 2:
            q = basis[0].q
            b0, b1 = basis[0].a, basis[1].a
            # c b1 is reduced before the sum: b0 + c b1 can pass 2^63 at large q
            yield from (Mat(b0 + c * b1 % mod, mod) for c in range(1, q))
        else:
            draws = rng or np.random.default_rng(0)
            for _ in range(_RANDOM_TRIES):
                coeffs = draws.integers(0, mod, size=len(basis))
                # each scaled term is reduced mod m before the sum
                yield Mat(sum(b.a * int(c) % mod for c, b in zip(coeffs, basis)), mod)

    return next((c for c in itertools.chain(basis, combinations())
                 if c.is_invertible()), None)


def is_isomorphic(r1: Rep, r2: Rep):
    """(flag, witness): an invertible intertwiner M r1(g) = r2(g) M when flag
    is True, from `contains_invertible` over `intertwiner_space(r1, r2)`; the
    package's one way to find an isomorphism with no known candidate map."""
    if r1.dim != r2.dim:
        return False, None
    basis = intertwiner_space(r1, r2)
    w = contains_invertible(basis)
    return (w is not None), w


def isotypic_lines(rho: Rep, chi: Rep) -> list[np.ndarray]:
    """Basis of {v : rho(g) v = chi(g) v for all g}: the free part of
    Hom(chi, rho)."""
    if chi.dim != 1:
        raise ValueError("chi must be a character")
    return [v for v, ann in hom_kernel(chi, rho) if ann == rho.mod]


class PairingClassification:
    """Result of classify_pairing: a symmetry-adapted basis plus the parity
    mu(ctilde) of the similitude character (odd iff -1)."""

    def __init__(self, basis, mu_at_ctilde, mod):
        self.basis = basis  # list of (Mat, 'symmetric' | 'antisymmetric')
        self.mu_at_ctilde = mu_at_ctilde
        self.mod = mod

    @property
    def parity_odd(self):
        return self.mu_at_ctilde == self.mod - 1

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)


def classify_pairing(rho: Rep, mu: Rep) -> PairingClassification:
    """Basis of {B : rho(g)^T B rho(g) = mu(g) B}, tagged by transpose symmetry.

    The space is Hom(rho, rho^vee mu).  It is transpose-stable, so over an
    odd prime field it is the direct sum of its symmetric and antisymmetric
    parts, `hom_kernel(rho, rho^vee mu, +-1)`; the basis is the reduced row
    echelon basis of each part.
    """
    if mu.dim != 1:
        raise ValueError("mu must be a character")
    q = rho.q
    if rho.precision > 1:
        raise NotImplementedError("pairing classification is over F_q")
    d = rho.dim
    dual = dual_twist(rho, mu)
    basis = []
    for label, sign in (("symmetric", 1), ("antisymmetric", -1)):
        part = np.array([v for v, _ in hom_kernel(rho, dual, sign)],
                        dtype=np.int64).reshape(-1, d * d)
        basis += [(Mat(v.reshape(d, d), q), label) for v in row_space_mod(part, q)]
    if len(basis) != len(hom_kernel(rho, dual)):
        # mixed-symmetry leftovers cannot occur over an odd modulus
        raise AssertionError("pairing space failed to split by symmetry")
    mu_ct = mu.value(rho.group.ctilde) if mu.domain == "G" else None
    return PairingClassification(basis, mu_ct, rho.mod)
