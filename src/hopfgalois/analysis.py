"""Classification of the descended Hopf algebras.

Two classifications run side by side and are cross-checked:

* Hopf isomorphism classes, decided combinatorially: two structures give
  isomorphic Hopf algebras exactly when their subgroups admit a group
  isomorphism commuting with conjugation by left translations.  Positive
  witnesses are re-verified on the descended presentations (the induced
  linear map must pass every Hopf-map identity); negative answers come with
  an exhaustive certificate listing every plain group isomorphism together
  with the first equivariance failure.

* Algebra structure, decided by exact Wedderburn data: a commutative
  algebra is split into ideals by rational eigenvalues of multiplication
  operators, and a 6-dimensional noncommutative one by the primitive
  idempotents of its center, split the same way.  A 4-dimensional block
  with center Q is 2x2 matrices over Q once a square-zero element is found
  (an explicit witness or a small exact scan; without one the component is
  reported as undetermined, never guessed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product

from math import gcd

from .algebra import Algebra, hopf_map_violation
from .catalog import catalog
from .descent import group_algebra, descend
from .groups import dihedral, equivariant_iso_search, left_regular, right_regular
from .linalg import (Matrix, ONE, Q, ZERO, column_space_basis, hstack,
                     integer_normalized, vstack)

KIND_FIELD = "field"
KIND_MATRIX2 = "matrix2_over_center"
KIND_DIVISION = "division_noncommutative"
KIND_UNDETERMINED = "undetermined"
VALID_KINDS = (KIND_FIELD, KIND_MATRIX2, KIND_DIVISION, KIND_UNDETERMINED)


@dataclass
class WedderburnComponent:
    dim: int
    center_dim: int
    kind: str
    unit: tuple
    basis: Matrix

    def key(self):
        return (self.dim, self.center_dim, self.kind)


@dataclass
class WedderburnReport:
    components: list

    def summary(self):
        """Multiset of (dim, center_dim, kind), sorted."""
        return tuple(sorted(c.key() for c in self.components))

    @property
    def total_dim(self):
        return sum(c.dim for c in self.components)


# -- commutative splitting ----------------------------------------------------

def minimal_polynomial(M):
    """Monic minimal polynomial of a square matrix, low degree first."""
    n = M.rows
    powers = [Matrix.identity(n)]
    vectors = [list(powers[0].entries)]
    while True:
        powers.append(powers[-1] * M)
        vectors.append(list(powers[-1].entries))
        span = Matrix.from_columns(vectors[:-1], rows=n * n)
        sol = span.solve(Matrix.from_columns([vectors[-1]], rows=n * n))
        if sol is not None:
            coeffs = [-sol[i, 0] for i in range(sol.rows)]
            coeffs.append(ONE)
            return coeffs
        if len(powers) > n + 1:
            raise AssertionError("minimal polynomial must have degree <= dim")


def _at_half(p, t):
    """2^deg(p) * p(t / 2) for an integer t: an integer with the sign of p(t / 2)."""
    v = 0
    for i, c in enumerate(reversed(p)):
        v = v * t + (c << i)
    return v


def rational_roots(coeffs):
    """Sorted rational roots of a polynomial with rational coefficients.

    With denominators cleared and x^k (the root 0) taken out, f = a x^n + ...
    gives the monic integer g(y) = a^(n-1) f(y/a); the roots of f are y/a for
    the integer roots y of g.  g's Sturm chain of pseudo-remainders (scaled
    by positive integers only) counts distinct real roots between
    half-integers, never roots of g.  Bisection from the Cauchy bound
    1 + max|g_i| takes O(n log2 bound) chain evaluations down to unit
    intervals; g is evaluated exactly at the integer in each one with a root.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        raise ValueError("zero polynomial")
    ints = [int(c) for c in integer_normalized(coeffs)]
    low = next(i for i, c in enumerate(ints) if c)
    roots = [ZERO] if low else []
    n, a = len(ints) - low - 1, ints[-1]
    g = [c * a ** (n - 1 - i) for i, c in enumerate(ints[low:-1])] + [1]
    chain = [g, [i * c for i, c in enumerate(g)][1:]]
    while len(chain[-1]) > 1:
        r, b = chain[-2], chain[-1]
        while len(r) >= len(b):  # r <- |lc b| r - sign(lc b) lc(r) x^k b
            q, k = (r[-1] if b[-1] > 0 else -r[-1]), len(r) - len(b)
            r = [abs(b[-1]) * c - (q * b[i - k] if i >= k else 0) for i, c in enumerate(r)]
            while r and r[-1] == 0:
                r.pop()
        if not r:
            break
        d = gcd(*r)
        chain.append([-c // d for c in r])

    def changes(t):
        signs = [v > 0 for v in (_at_half(p, t) for p in chain) if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    t = 2 * max(map(abs, g)) + 1
    stack = [(-t, changes(-t), t, changes(t))]
    while stack:
        lo, v_lo, hi, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo > 2:
            mid = lo + (hi - lo) // 4 * 2
            v_mid = changes(mid)
            stack += [(lo, v_lo, mid, v_mid), (mid, v_mid, hi, v_hi)]
        elif _at_half(g, lo + 1) == 0:
            roots.append(Q((lo + 1) // 2, a))
    return sorted(roots)


def _restricted_operator(H, basis, x):
    """Matrix of multiplication by x on the span of `basis` columns."""
    sol = basis.solve(H.mult_operator(x) * basis)
    if sol is None:
        raise AssertionError("span is not an ideal")
    return sol


def _split_unit(H, unit, part_a, part_b):
    combined = hstack(part_a, part_b)
    sol = combined.solve(Matrix.from_columns([list(unit)], rows=H.dim))
    if sol is None:
        raise AssertionError("unit left the component")
    ua = part_a.apply([sol[i, 0] for i in range(part_a.cols)])
    ub = part_b.apply([sol[part_a.cols + i, 0] for i in range(part_b.cols)])
    for u in (ua, ub):
        if H.mul(u, u) != u:
            raise AssertionError("component unit is not idempotent")
    if any(H.mul(ua, ub)):
        raise AssertionError("component units are not orthogonal")
    return ua, ub


def commutative_wedderburn(H):
    """Decomposition of a commutative algebra into indecomposable ideals.

    Splitting elements are the basis vectors and their pairwise sums; each
    is used through the rational eigenvalues of its multiplication operator.
    Components that no splitting element separates are reported with kind
    "field" when 1-dimensional and "undetermined" otherwise.
    """
    if not H.is_commutative():
        raise ValueError("commutative_wedderburn needs a commutative algebra")
    n = H.dim
    seq = [H.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = H.basis_vector(i)
            v[j] = ONE
            seq.append(v)

    work = [(list(H.unit), Matrix.identity(n))]
    done = []
    while work:
        unit, basis = work.pop(0)
        k = basis.cols
        if k == 1:
            done.append(WedderburnComponent(1, 1, KIND_FIELD,
                                            tuple(unit), basis))
            continue
        split = None
        for z in seq:
            zc = H.mul(unit, z)
            Mz = _restricted_operator(H, basis, zc)
            for a in rational_roots(minimal_polynomial(Mz)):
                shifted = Mz - Matrix.identity(k) * a
                ker = shifted.kernel()
                if 0 < ker.cols < k:
                    part_a = column_space_basis(basis * ker)
                    part_b = column_space_basis(basis * shifted)
                    if part_a.cols + part_b.cols != k:
                        raise AssertionError("eigen-split dimensions do not add up")
                    ua, ub = _split_unit(H, unit, part_a, part_b)
                    split = ((ua, part_a), (ub, part_b))
                    break
            if split:
                break
        if split:
            work.extend(split)
        else:
            done.append(WedderburnComponent(k, k, KIND_UNDETERMINED,
                                            tuple(unit), basis))
    done.sort(key=lambda c: (c.dim, tuple(c.unit)))
    return WedderburnReport(done)


# -- noncommutative dimension 6 -----------------------------------------------

def character_idempotents(p):
    """The trivial and sign character idempotents e = (1/n) sum chi(g^-1) g of
    Q[D_p], as coordinate vectors over the group-element basis; the sign
    character is -1 exactly on the involutions, and chi(g) = chi(g^-1)."""
    G = dihedral(p)
    n = G.order
    return [Q(1, n)] * n, [Q(-1, n) if G.element_order(g) == 2 else Q(1, n) for g in range(n)]


def find_square_zero_element(H, basis=None, bound=2):
    """Exact scan for a nonzero x with x*x = 0 in the span of `basis`.

    Coordinates run over the integer box [-bound, bound]^k in a fixed
    order; returns the first witness or None.  A scan failure is reported
    as None, never as a nonexistence proof.
    """
    if basis is None:
        basis = Matrix.identity(H.dim)
    for coords in iter_product(range(-bound, bound + 1), repeat=basis.cols):
        x = basis.apply(coords)
        if any(x) and not any(H.mul(x, x)):
            return x
    return None


def _square_zero_in(H, basis, hint, bound):
    """The hint when it is a square-zero element of span(basis), else a scan."""
    if hint is not None:
        x = list(hint)
        if (basis.solve(Matrix.from_columns([x], rows=H.dim)) is not None
                and any(x) and not any(H.mul(x, x))):
            return x
    return find_square_zero_element(H, basis, bound=bound)


def noncommutative_wedderburn_p3(H, nilpotent=None, scan_bound=2):
    """Wedderburn data for the 6-dimensional noncommutative case.

    The center Z(H), the kernel of the commutators with the basis, is
    split by commutative_wedderburn; each component unit e is a central
    idempotent of H, and the block eH has the component's dimension as its
    center dimension.  A 4-dimensional block with a 1-dimensional center is
    2x2 matrices over it once a square-zero element is found (`nilpotent`
    or a scan up to `scan_bound`); any other block larger than 1 is
    "undetermined" (e.g. a division algebra would scan clean).
    """
    if H.dim != 6:
        raise ValueError("this routine handles dimension 6 only")
    if H.is_commutative():
        raise ValueError("use commutative_wedderburn for commutative input")
    Z = vstack(*(H.mult_operator(b) - H.right_mult_operator(b)
                 for b in map(H.basis_vector, range(H.dim)))).kernel()
    mult = Z.solve(hstack(*(H.mult_operator(Z.column(j)) * Z for j in range(Z.cols))))
    unit = Z.solve(Matrix.from_columns([H.unit]))
    if mult is None or unit is None:
        raise AssertionError("the center is not a subalgebra")

    components = []
    for comp in commutative_wedderburn(Algebra(mult, unit.column(0))).components:
        e = Z.apply(comp.unit)
        basis = column_space_basis(H.mult_operator(e))
        kind = KIND_FIELD if basis.cols == 1 else KIND_UNDETERMINED
        if (basis.cols == 4 and comp.dim == 1
                and _square_zero_in(H, basis, nilpotent, scan_bound) is not None):
            kind = KIND_MATRIX2
        components.append(WedderburnComponent(basis.cols, comp.dim, kind, tuple(e), basis))
    if sum(c.dim for c in components) != H.dim:
        raise AssertionError("block dimensions do not add up")
    return WedderburnReport(components)


def nilpotent_witness(L):
    """The square-zero element a*lam(s) + a z^2*lam(rs) + a z*lam(r^2 s)
    of L[lam(D_3)], as a coordinate vector (L must be a cubic model with
    basis 1, a, a^2, z, az, a^2z).

    The three reflection coefficients are a, r^2(a), r(a); conjugation
    rotates them along while fixing the slots' recursion, so the element
    is G-fixed, and its square vanishes because 1 + z + z^2 = 0.
    """
    G = L.group
    if L.model != "cubic" or G.order != 6:
        raise ValueError("nilpotent witness lives over the cubic D_3 model")
    lam = left_regular(G)
    A = group_algebra(L, lam)
    # the coefficients a, a z^2 = -a - az and az, as columns j = 0, 1, 2
    coeffs = Matrix.from_entries(6, 3, [(1, 0, ONE), (1, 1, -ONE), (4, 1, -ONE), (4, 2, ONE)])
    # e_t (x) e_j for the slot t of the j-th of s, rs, r^2 s
    picks = Matrix.from_entries(A.N.order * 3, 1, ((A.N.index_of(lam.elements[g]) * 3 + j, 0, ONE)
                                                   for j, g in enumerate((3, 4, 5))))
    return list((A.slot_map(range(A.N.order), coeffs) * picks).column(0))


# -- isomorphism classes ------------------------------------------------------

@dataclass
class PairEvidence:
    """Outcome of comparing one pair of structures."""

    isomorphic: bool
    witness: object = None            # GroupIso when isomorphic
    induced_map_checked: bool = False
    certificate: list = None          # rejections when not isomorphic
    isos_tested: int = 0


@dataclass
class HopfIsoClassReport:
    labels: list
    classes: list
    evidence: dict

    def class_of(self, label):
        for cls in self.classes:
            if label in cls:
                return cls
        raise KeyError(label)


def _group_by(labels, key):
    """The labels grouped into classes of equal key(label), in order of first
    appearance."""
    classes = {}
    for lab in labels:
        classes.setdefault(key(lab), []).append(lab)
    return list(classes.values())


def _induced_hopf_map(Ha, Hb, iso):
    """The linear map of descended presentations induced by a subgroup iso."""
    moved = Ha.provenance.parent.slot_map(iso.mapping) * Ha.provenance.basis
    sol = Hb.provenance.basis.solve(moved)
    if sol is None:
        raise AssertionError("induced image left the target fixed ring")
    return sol


def _descend_catalog(p, L, descended):
    """The catalog at p, with every entry descended over L into the cache
    `descended` (label -> presentation; a new dict when None)."""
    entries = catalog(p)
    if descended is None:
        descended = {}
    for e in entries:
        if e.label not in descended:
            descended[e.label] = descend(group_algebra(L, e.subgroup), label=e.label)
    return entries, descended


def hopf_iso_classes(p, L, descended=None):
    """Partition of the catalog labels into Hopf isomorphism classes.

    Every pair is decided by the equivariant-isomorphism criterion; each
    positive answer is cross-checked by verifying the induced linear map on
    the descended presentations against all Hopf-map identities, and each
    negative answer records the exhaustive certificate.
    """
    entries, descended = _descend_catalog(p, L, descended)
    G = L.group
    labels = [e.label for e in entries]
    evidence = {}
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            a, b = entries[i], entries[j]
            isos, rejected = equivariant_iso_search(a.subgroup, b.subgroup, G)
            if isos:
                T = _induced_hopf_map(descended[a.label], descended[b.label], isos[0])
                violation = hopf_map_violation(T, descended[a.label], descended[b.label])
                if violation is not None:
                    raise AssertionError(
                        f"equivariant witness for ({a.label},{b.label}) fails: {violation}")
                evidence[(a.label, b.label)] = PairEvidence(
                    True, witness=isos[0], induced_map_checked=True,
                    isos_tested=len(isos) + len(rejected))
            else:
                cert = [(iso.mapping, (G.names[g], t)) for iso, (g, t) in rejected]
                evidence[(a.label, b.label)] = PairEvidence(
                    False, certificate=cert, isos_tested=len(rejected))

    # each label's key is the first label equal or isomorphic to it
    first = {lab: next(la for la in labels if la == lab or evidence[(la, lab)].isomorphic)
             for lab in labels}
    classes = _group_by(labels, first.get)

    # consistency: evidence must agree with the partition
    for (la, lb), ev in evidence.items():
        if (first[la] == first[lb]) != ev.isomorphic:
            raise AssertionError("pairwise evidence is not transitive")
    return HopfIsoClassReport(labels=labels, classes=classes, evidence=evidence)


def minimal_splitting_subfield_check(L):
    """Equivariance over every subgroup of G separates lam from rho.

    Returns a list of records, one per subgroup G' of G: the number of
    G'-equivariant isomorphisms lam(G) -> rho(G).  Only the trivial
    subgroup admits any, so no proper intermediate field splits the two
    translation structures into each other; the center being trivial is
    recorded alongside.
    """
    G = L.group
    lam = left_regular(G)
    rho = right_regular(G)
    records = []
    for sub in G.all_subgroups():
        indices = sorted(sub)
        isos, _ = equivariant_iso_search(lam, rho, G, respect=indices)
        records.append({
            "subgroup": tuple(G.names[i] for i in indices),
            "size": len(indices),
            "equivariant_count": len(isos),
            "expected_nonzero": len(indices) == 1,
        })
    return {
        "records": records,
        "center_trivial": G.center() == (G.identity,),
        "passed": all((rec["equivariant_count"] > 0) == rec["expected_nonzero"]
                      for rec in records),
    }


def algebra_iso_classes_p3(L, descended=None):
    """Partition of the five p=3 structures by exact Wedderburn summary."""
    entries, descended = _descend_catalog(3, L, descended)
    lam_key = left_regular(L.group).canonical_key()
    reports = {}
    for e in entries:
        H = descended[e.label]
        if H.is_commutative():
            reports[e.label] = commutative_wedderburn(H)
        else:
            hint = None
            prov = H.provenance
            if (L.model == "cubic" and prov is not None
                    and prov.parent.N.canonical_key() == lam_key):
                sol = prov.basis.solve(
                    Matrix.from_columns([nilpotent_witness(L)], rows=prov.parent.dim))
                if sol is not None:
                    hint = [sol[i, 0] for i in range(H.dim)]
            reports[e.label] = noncommutative_wedderburn_p3(H, nilpotent=hint)
    return _group_by([e.label for e in entries], lambda lab: reports[lab].summary()), reports
