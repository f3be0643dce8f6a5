"""Finite groups, permutation subgroups, and equivariance machinery.

Groups are Cayley tables over element indices 0..n-1.  The dihedral group of
order 2p stores r^i s^j at index i + p*j, so index arithmetic stays readable
throughout the catalog and descent code.

Permutation subgroups of Perm(G) are the central object: regularity,
normalization by left translations, bounded closure, exhaustive enumeration
of regular normalized subgroups for small G (one closure per lambda(G)-orbit
of fixed-point-free permutations, grown by joins), and isomorphism searches
that can be required to commute with conjugation by a chosen set of
translations.  `PermSubgroup.group` is a subgroup as a `FiniteGroup` on its
positions.  Every generated set (a closure, a conjugation orbit, a list of
powers, the subgroup lattice, the enumerator's search) is one breadth-first
`_walk`.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from itertools import permutations, product as iter_product
from math import gcd, lcm
from typing import NamedTuple

from .algebra import CheckFailed
from .linalg import _checked, require_permutation


class ClosureBoundExceeded(RuntimeError):
    """Raised when a closure grows past the bound its caller gave."""


class UnknownGroupType(ValueError):
    """Raised when iso_type meets a group outside its small catalog."""


class Perm(namedtuple("Perm", "images")):
    """A permutation of {0..degree-1}, given by any sequence of its images and
    stored as their tuple."""

    __slots__ = ()

    def __new__(cls, images):
        require_permutation(images)
        return tuple.__new__(cls, (tuple(images),))

    @classmethod
    def _make(cls, iterable):
        """The base's _make, then checked as __new__ checks, so _replace checks too."""
        return cls(*super()._make(iterable))

    @classmethod
    def identity(cls, degree):
        return cls(tuple(range(degree)))

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, x):
        return self.images[x]

    def __mul__(self, other):
        """Composition: (self * other)(x) = self(other(x)).

        A composition of two bijections of one degree is a bijection, so the
        product skips __new__'s check; unequal degrees are refused."""
        images = self.images
        if len(images) != len(other.images):
            raise ValueError("cannot compose permutations of different degrees")
        return tuple.__new__(Perm, (tuple([images[x] for x in other.images]),))

    def inverse(self):
        inv = [0] * self.degree
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm(inv)

    def is_identity(self):
        return all(self.images[x] == x for x in range(self.degree))

    def has_fixed_point(self):
        return any(self.images[x] == x for x in range(self.degree))

    def order(self):
        seen = [False] * self.degree
        result = 1
        for x in range(self.degree):
            if seen[x]:
                continue
            length = 0
            y = x
            while not seen[y]:
                seen[y] = True
                y = self.images[y]
                length += 1
            result = lcm(result, length)
        return result


def _walk(step, roots, gens, bound=None):
    """Everything that `roots` reach by y = step(x, g) for g in `gens`.

    Returns it breadth first as (y, x, g) triples, one per element, where
    (x, g) is the first step that reached y; x and g are None for a root.
    Raises ClosureBoundExceeded once more than `bound` elements appear.
    From the identity of a Cayley table with step its product, this is the
    subgroup `gens` generate, and following the triples rebuilds any
    homomorphic image from the images of `gens`.
    """
    walk = [(x, None, None) for x in dict.fromkeys(roots)]
    seen = {x for x, _, _ in walk}
    for x, _, _ in walk:
        for g in gens:
            y = step(x, g)
            if y not in seen:
                if bound is not None and len(seen) >= bound:
                    raise ClosureBoundExceeded(f"closure exceeded bound {bound}")
                seen.add(y)
                walk.append((y, x, g))
    return walk


def powers(mul, x, identity):
    """[identity, x, x^2, ...] up to the order of x: the walk of mul(., x)."""
    return [y for y, _, _ in _walk(mul, [identity], [x])]


class FiniteGroup(namedtuple("FiniteGroup", "table names identity generators")):
    """A finite group as a Cayley table with named elements."""

    @property
    def order(self):
        return len(self.table)

    def mul(self, a, b):
        return self.table[a][b]

    @cached_property
    def inverses(self):
        """The first b with a * b the identity for each a, None where the table has none."""
        return tuple(row.index(self.identity) if self.identity in row else None
                     for row in self.table)

    def inv(self, a):
        return self.inverses[a]

    def element_order(self, a):
        return len(powers(self.mul, a, self.identity))

    def extend(self, images, identity):
        """The values, element by element, of the homomorphism that sends
        each generator g to images[g]: one product x * images[g] per
        element along one walk.  That it is a homomorphism is not checked."""
        out = {}
        for y, x, g in _walk(self.mul, [self.identity], self.generators):
            out[y] = identity if x is None else out[x] * images[g]
        return [out[y] for y in range(self.order)]

    def subgroup_generated(self, gens):
        return frozenset(x for x, _, _ in _walk(self.mul, [self.identity], list(gens)))

    def all_subgroups(self):
        """Every subgroup, ordered by size and then by elements.

        The walk over subgroups S -> <S, g> from the trivial one: each
        subgroup is reached by adding its elements one at a time.
        """
        def grow(S, g):
            return S if g in S else self.subgroup_generated((*S, g))
        walk = _walk(grow, [frozenset({self.identity})], range(self.order))
        return sorted((S for S, _, _ in walk), key=lambda S: (len(S), sorted(S)))

    def center(self):
        return tuple(a for a in range(self.order)
                     if all(self.mul(a, b) == self.mul(b, a) for b in range(self.order)))


def _is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def dihedral(p):
    """Dihedral group of order 2p for an odd prime p; r^i s^j at index i+p*j."""
    if not isinstance(p, int) or not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p!r}")

    def idx(i, j):
        return i % p + p * (j % 2)

    table = []
    for a in range(2 * p):
        i, j = a % p, a // p
        row = []
        for b in range(2 * p):
            k, l = b % p, b // p
            # (r^i s^j)(r^k s^l) = r^(i + (-1)^j k) s^(j+l)
            row.append(idx(i + (k if j == 0 else -k), j + l))
        table.append(tuple(row))

    def name(a):
        i, j = a % p, a // p
        rpart = "" if i == 0 else ("r" if i == 1 else f"r^{i}")
        spart = "s" if j else ""
        return (rpart + spart) or "1"

    return FiniteGroup(tuple(table), tuple(name(a) for a in range(2 * p)),
                       identity=0, generators=(idx(1, 0), idx(0, 1)))


def elementary_abelian_4():
    """The Klein four group; r^i s^j at index i + 2j."""
    table = []
    for a in range(4):
        i, j = a % 2, a // 2
        table.append(tuple((i + k) % 2 + 2 * ((j + l) % 2)
                           for k, l in ((b % 2, b // 2) for b in range(4))))
    return FiniteGroup(tuple(table), ("1", "r", "s", "rs"),
                       identity=0, generators=(1, 2))


def cyclic(n):
    """Cyclic group of order n, a positive integer (a bool is not one)."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"order must be a positive integer, got {n!r}")
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    names = tuple("1" if a == 0 else ("g" if a == 1 else f"g^{a}") for a in range(n))
    return FiniteGroup(table, names, identity=0, generators=(1 % n,))


class PermSubgroup(namedtuple("PermSubgroup", "degree elements element_names",
                              defaults=(None,))):
    """A subgroup of Perm({0..degree-1}) given by its element list.

    The element order is part of the value: constructors choose it
    deterministically (group order for translation subgroups, generator
    powers for cyclic catalog entries, sorted image tuples for closures).
    """

    @property
    def order(self):
        return len(self.elements)

    @cached_property
    def _position(self):
        return {p.images: t for t, p in enumerate(self.elements)}

    def __contains__(self, perm):
        return perm.images in self._position

    def index_of(self, perm):
        return self._position[perm.images]

    @cached_property
    def group(self):
        """The FiniteGroup on the positions: table[t][u] is the position of
        elements[t] * elements[u], with greedy generators scanned in order."""
        table = tuple(tuple(self.index_of(a * b) for b in self.elements)
                      for a in self.elements)
        identity = self.index_of(Perm.identity(self.degree))
        return FiniteGroup(table, tuple(map(self.name_of, range(self.order))), identity,
                           tuple(greedy_generators(table, identity, range(self.order))))

    @cached_property
    def element_orders(self):
        return tuple(a.order() for a in self.elements)

    def conjugation(self, g):
        """The position of g eta g^-1 for each eta, None where it leaves the subgroup."""
        return tuple(self._position.get(_conj_images(g.images, eta.images))
                     for eta in self.elements)

    def canonical_key(self):
        return tuple(sorted(p.images for p in self.elements))

    def name_of(self, t):
        if self.element_names is not None:
            return self.element_names[t]
        return f"n{t}"


def left_regular(G):
    """Left translations g -> (h -> gh), in group element order."""
    elems = tuple(Perm(G.table[g]) for g in range(G.order))
    return PermSubgroup(G.order, elems, element_names=tuple(f"lam[{n}]" for n in G.names))


def right_regular(G):
    """Right translations g -> (h -> h g^-1), in group element order."""
    elems = tuple(Perm(tuple(G.table[h][G.inv(g)] for h in range(G.order)))
                  for g in range(G.order))
    return PermSubgroup(G.order, elems, element_names=tuple(f"rho[{n}]" for n in G.names))


def _is_semiregular(N):
    """Whether only the identity of N has a fixed point."""
    return all(p.is_identity() or not p.has_fixed_point() for p in N.elements)


def is_regular(N):
    """Regular subgroup: order equals degree and only the identity has a
    fixed point."""
    return N.order == N.degree and _is_semiregular(N)


def conj_by(g, p):
    """Conjugate g p g^-1, which sends g(x) to g(p(x))."""
    return Perm(_conj_images(g.images, p.images))


def _conj_images(g, p):
    """The image tuple of g p g^-1 from image tuples, a bijection by construction."""
    images = [0] * len(g)
    for x, y in zip(g, p):
        images[x] = g[y]
    return tuple(images)


def is_normalized_by(N, translations):
    """Whether conjugation by every element of `translations` maps N into N.

    Trying the generators of `translations.group` is exact: conjugation is
    injective and N finite, so g N g^-1 within N means g N g^-1 = N, and the
    g with g N g^-1 = N form a group."""
    return all(None not in N.conjugation(translations.elements[t])
               for t in translations.group.generators)


def closure(gens, bound):
    """Subgroup generated by `gens`, the walk of products from the identity,
    with its elements sorted by image tuple.

    Raises ValueError unless `bound` is a positive integer (a bool is not
    one), and ClosureBoundExceeded once more than `bound` elements appear.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("closure needs at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("mixed degrees")
    if isinstance(bound, bool) or not isinstance(bound, int) or bound <= 0:
        raise ValueError(f"closure bound must be a positive integer, got {bound!r}")
    walk = _walk(lambda x, g: tuple(map(x.__getitem__, g)), [tuple(range(degree))],
                 [g.images for g in gens], bound)
    return PermSubgroup(degree, tuple(Perm(x) for x in sorted(x for x, _, _ in walk)))


def enumerate_regular_normalized(G):
    """All regular subgroups of Perm(G) normalized by left translations.

    Exhaustive search, restricted to |G| <= 8.  A subgroup is admissible
    when it has at most |G| elements and every non-identity element moves
    every point.  The seeds are the fixed-point-free permutations;
    conjugation by lambda(G) sends a seed's orbit to itself, so every seed
    of one orbit has the same closure, and each orbit is walked and closed
    once.  The admissible closures grow by joins: join(N, M) is the closure
    of the generators of N and M, or N when N is full, already holds M, or
    that closure is not admissible, which the product set NM shows without
    a closure when its |N| |M| / |N n M| elements outnumber G.  The subgroup
    two invariant subgroups generate is invariant, so a join conjugates
    nothing.  One walk joins the kept closures with the proper ones and
    keeps the full results.  That is complete: a wanted M contains the
    closure of the orbit of each of its elements, so that closure is
    admissible and kept; M is the join of those closures, and every partial
    join lies inside M, so it is admissible and the walk reaches M.
    """
    n = G.order
    if n > 8:
        raise ValueError("exhaustive enumeration is limited to groups of order <= 8")
    lam = left_regular(G)
    conjugators = [lam.elements[g].images for g in G.generators]

    def admissible(gens):
        try:
            N = closure(gens, bound=n)
        except ClosureBoundExceeded:
            return None
        return N if _is_semiregular(N) else None

    def join(N, M):
        common = sum(z in N for z in M.elements)
        if N.order == n or common == M.order or N.order * M.order > n * common:
            return N
        return admissible([X.elements[i] for X in (N, M) for i in X.group.generators]) or N

    seen, closures = set(), []
    for seed in permutations(range(n)):
        if seed not in seen and all(seed[i] != i for i in range(n)):
            orbit = [x for x, _, _ in _walk(lambda x, c: _conj_images(c, x), [seed], conjugators)]
            seen.update(orbit)
            closures.append(admissible(Perm(x) for x in orbit))
    kept = [N for N in dict.fromkeys(closures) if N is not None]
    walk = _walk(join, kept, [N for N in kept if N.order < n])
    out = sorted((N for N, _, _ in walk if N.order == n), key=PermSubgroup.canonical_key)
    for N in out:
        if not (is_regular(N) and is_normalized_by(N, lam)):
            raise CheckFailed("enumerated subgroup is not regular and normalized")
    return out


def _order_mod(k, n):
    # order of k in Z/n
    return n // gcd(k, n)


def _cyclic_census(n):
    return Counter(_order_mod(k, n) for k in range(n))


def _dihedral_census(m):
    census = Counter(_order_mod(k, m) for k in range(m))
    census[2] += m
    return census


def iso_type(N):
    """Isomorphism type label by element-order census.

    Supported orders: n <= 14, where the census separates cyclic and
    dihedral groups (and the Klein four group) from everything else, and
    n = 2q for an odd prime q, where C_2q and D_q are the only groups so
    the census is a complete invariant.
    """
    n = N.order
    if n > 14 and not (n % 2 == 0 and _is_odd_prime(n // 2)):
        raise ValueError(f"iso_type does not support order {n}")
    census = Counter(N.element_orders)
    if census == _cyclic_census(n):
        return f"C{n}"
    if n == 4 and census == Counter({1: 1, 2: 3}):
        return "C2xC2"
    if n % 2 == 0 and n // 2 >= 3 and census == _dihedral_census(n // 2):
        return f"D{n // 2}"
    raise UnknownGroupType(f"order census {dict(sorted(census.items()))} not in catalog")


class GroupIso(NamedTuple):
    """An isomorphism between two permutation subgroups, as a position map."""

    source: PermSubgroup
    target: PermSubgroup
    mapping: tuple

    def verify(self):
        A, B, m = self.source.group, self.target.group, self.mapping
        return sorted(m) == list(range(A.order)) and all(
            m[A.mul(t, u)] == B.mul(m[t], m[u]) for t in range(A.order) for u in range(A.order))


def greedy_generators(table, identity, candidates):
    """The candidates, in order, that the ones kept before them do not
    generate in the Cayley table `table`: generators of the subgroup that
    all the candidates generate."""
    gens, have = [], {identity}
    for t in candidates:
        if t not in have:
            gens.append(t)
            have = {x for x, _, _ in _walk(lambda x, g: table[x][g], [identity], gens)}
    return gens


def group_isomorphisms(A, B):
    """All isomorphisms A -> B, as GroupIso position maps."""
    if A.order != B.order:
        return []
    GA, GB = A.group, B.group
    walk = _walk(GA.mul, [GA.identity], GA.generators)
    if len(walk) != A.order:
        raise CheckFailed("generators do not generate")
    candidates = [[u for u in range(B.order) if B.element_orders[u] == A.element_orders[g]]
                  for g in GA.generators]
    isos = []
    for choice in iter_product(*candidates):
        images = dict(zip(GA.generators, choice))
        m = [None] * A.order
        m[GA.identity] = GB.identity
        for x, parent, g in walk[1:]:
            m[x] = GB.table[m[parent]][images[g]]
        iso = GroupIso(A, B, tuple(m))
        if iso.verify():
            isos.append(iso)
    return isos


def equivariant_iso_search(N, N2, G, respect=None):
    """Split the isomorphisms N -> N2 by equivariance under conjugation.

    `respect` is a sequence of element indices of G (default: all of G);
    equivariance means commuting with conjugation by those left translations.
    Returns (equivariant, rejections) where each rejection pairs a GroupIso
    with the first witness (g_index, element_position) where it fails.
    Raises ValueError when a respected translation does not normalize N or N2,
    and IndexError for an index outside 0 .. |G| - 1.
    """
    lam = left_regular(G)
    if respect is None:
        respect = range(G.order)
    respect = [_checked(g, G.order, "group element") for g in respect]
    conj_on = {g: N.conjugation(lam.elements[g]) for g in respect}
    conj_on2 = {g: N2.conjugation(lam.elements[g]) for g in respect}
    for g in respect:
        if None in conj_on[g] + conj_on2[g]:
            raise ValueError(f"lam[{G.names[g]}] does not normalize both subgroups")
    equivariant = []
    rejections = []
    for iso in group_isomorphisms(N, N2):
        bad = None
        for g in respect:
            ca, cb = conj_on[g], conj_on2[g]
            for t in range(N.order):
                if iso.mapping[ca[t]] != cb[iso.mapping[t]]:
                    bad = (g, t)
                    break
            if bad:
                break
        if bad is None:
            equivariant.append(iso)
        else:
            rejections.append((iso, bad))
    return equivariant, rejections
