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
  idempotents of its center, split the same way.  One candidate splits a
  block into all of its rational eigenspaces at once, and the rest, in one
  step; a candidate that acts on the block as a scalar is skipped before
  its minimal polynomial is taken.  A 4-dimensional block
  with center Q is 2x2 matrices over Q once its trace form is nondegenerate
  (so it is semisimple) and the eigen-split of a left multiplication
  operator finds an idempotent in it other than 0 and the block's unit (a
  division algebra has none); otherwise the block is reported as
  undetermined, never guessed.

Each runs once per distinct input.  descend reads N only through N.group
(table, identity, inverses) and SemilinearAction(L[N]).conj_map; catalog
lists N_c as gen_c^k, which lam(r) fixes and lam(s) inverts, so all N_c
share that key and descend to the same matrices (the G-equivariant slot
relabelling that carries one fixed ring onto another, Greither-Pareigis
1987, is the identity).  The Wedderburn routines read only mult and unit.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import NamedTuple

from math import gcd

from .algebra import Algebra, CheckFailed, HopfPresentation, hopf_map_violation
from .catalog import catalog
from .descent import SemilinearAction, _provenance_of, _slots_permuted, descend, group_algebra
from .groups import dihedral, equivariant_iso_search, left_regular, right_regular
from .linalg import Matrix, ONE, Q, ZERO, hstack, kernel_form, mul_kron

KIND_FIELD = "field"
KIND_MATRIX2 = "matrix2_over_center"
KIND_UNDETERMINED = "undetermined"


class WedderburnComponent(NamedTuple):
    dim: int
    center_dim: int
    kind: str
    unit: tuple
    basis: Matrix

    def key(self):
        return (self.dim, self.center_dim, self.kind)


class WedderburnReport(NamedTuple):
    components: list

    def summary(self):
        """Multiset of (dim, center_dim, kind), sorted."""
        return tuple(sorted(c.key() for c in self.components))


# -- commutative splitting ----------------------------------------------------

def minimal_polynomial(M):
    """Monic minimal polynomial of a square matrix, low degree first."""
    power, vectors = Matrix.identity(M.rows), []
    while len(vectors) <= M.rows:
        vectors.append(power.entries)
        power = power * M
        sol = Matrix.from_columns(vectors).solve(Matrix.from_columns([power.entries]))
        if sol is not None:
            return [-x for x in sol.column(0)] + [ONE]
    raise CheckFailed("minimal polynomial must have degree <= dim")


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
    ints = [int(c) for c in kernel_form(Matrix.from_columns([coeffs])).column(0)]
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


def _eigen_split(H, unit, basis, operators):
    """The component (unit, basis) split by the first of the operators with a
    complementary eigenvalue into its parts (commutative_wedderburn), as
    (unit, basis) pairs, or None.  The units come from one solve against
    the parts side by side; each is checked nonzero and idempotent, and
    the units pairwise orthogonal."""
    k = basis.cols
    ident = Matrix.identity(k)
    for op in operators:
        Mz = basis.solve(op * basis)
        if Mz is None:
            raise CheckFailed("span is not an ideal")
        if Mz == ident * Mz[0, 0]:
            continue  # one eigenvalue, whose kernel is the whole component
        parts, rest = [], ident
        for a in rational_roots(minimal_polynomial(Mz)):
            shifted = Mz - ident * a
            ker = shifted.kernel()
            if ker.cols < k and hstack(ker, shifted).rank() == k:
                parts.append(kernel_form(basis * ker))
                rest = rest * shifted
        if not parts:
            continue
        if rest != Matrix.zeros(k, k):
            parts.append(kernel_form(basis * rest))
        sol = hstack(*parts).solve(unit)
        if sol is None:
            raise CheckFailed("unit left the component")
        units, start, zero = [], 0, Matrix.zeros(H.dim, 1)
        for part in parts:
            u = part * sol.take_rows(range(start, start + part.cols))
            start += part.cols
            if u == zero:
                raise CheckFailed("component unit is zero")
            if mul_kron(H.mult, u, u) != u:
                raise CheckFailed("component unit is not idempotent")
            units.append(u)
        if any(mul_kron(H.mult, ua, ub) != zero for ua, ub in combinations(units, 2)):
            raise CheckFailed("component units are not orthogonal")
        return list(zip(units, parts))
    return None


def _candidate_operators(H):
    """A function returning an iterator over the left multiplication operators
    L_z of the splitting candidates z of H: the basis vectors, then the sums
    e_i + e_j with i < j.  Each L_z is built by `mult_operator` on first use
    and kept."""
    n = H.dim
    sums = [*combinations(range(n), 1), *combinations(range(n), 2)]

    @cache
    def operator(z):  # L_z for z the sum of the basis vectors indexed by z
        return H.mult_operator([ONE if i in z else ZERO for i in range(n)])

    return lambda: map(operator, sums)


def commutative_wedderburn(H):
    """Decomposition of a commutative algebra into indecomposable ideals.

    Splitting elements are the basis vectors and their pairwise sums; each
    is used through the rational eigenvalues a of its multiplication operator
    L_z.  On a component eH, z acts as ez does, so L_z restricts to it as
    M = basis.solve(L_z * basis).  A component is split by the first
    candidate with a rational a whose ker(M - a) is proper and
    complementary to im(M - a) (a scalar M has none and is skipped), in
    one step, into ker(M - a) for every such a and the rest, im(P(M)) for P
    the product of those M - a, when it is nonzero.  L_z commutes with
    every L_w, so each part is an ideal.  For each such a, ker(M - a) is
    the generalized eigenspace of a, so P(M) kills it and is invertible on
    the sum of the other generalized eigenspaces: the parts add up
    directly to the component.  Each part starts again at the first
    candidate.  Components that no candidate splits are reported with kind
    "field" when 1-dimensional and "undetermined" otherwise.

    On a semisimple component this gives the ideals that splitting off one
    eigenvalue at a time reaches.  The component is F_1 x ... x F_m, fields,
    and z acts on F_i as multiplication by its component z_i, so:

    * ker(M - a) is the sum of the F_i with z_i = a, and im(M - a) the sum
      of the others, so every rational root passes the test unless M = a;
    * the rest is the sum of the F_i on which z_i is not rational, since
      every rational z_i is a root;
    * call F_i ~ F_j when, for every candidate z, z_i = z_j as soon as one
      of them is rational.  This is an equivalence.  Either route puts F_i
      and F_j in different parts only when the splitting z has z_i = a
      rational and z_j != a, so never when F_i ~ F_j.  And a component
      holding two factors that are not ~-related is split by either route:
      some z has, say, z_i = a rational and z_j != a, so a is a root with a
      proper kernel.  Both routes therefore end at the ~-classes.

    The decomposition of an algebra into ideals is unique, an ideal's unit
    and `kernel_form` basis depend on the ideal alone, and components are
    sorted by (dim, unit), so both routes give the same report.
    """
    if not H.is_commutative():
        raise ValueError("commutative_wedderburn needs a commutative algebra")
    operators = _candidate_operators(H)
    work = [(Matrix.from_columns([H.unit]), Matrix.identity(H.dim))]
    done = []
    while work:
        unit, basis = work.pop(0)
        k = basis.cols
        split = _eigen_split(H, unit, basis, operators()) if k > 1 else None
        if split:
            work.extend(split)
        else:
            done.append(WedderburnComponent(k, k, KIND_FIELD if k == 1 else KIND_UNDETERMINED,
                                            unit.column(0), basis))
    done.sort(key=lambda c: (c.dim, c.unit))
    return WedderburnReport(done)


# -- noncommutative dimension 6 -----------------------------------------------

def character_idempotents(p):
    """The trivial and sign character idempotents e = (1/n) sum chi(g^-1) g of
    Q[D_p], as coordinate vectors over the group-element basis; the sign
    character is -1 exactly on the involutions, and chi(g) = chi(g^-1)."""
    G = dihedral(p)
    n = G.order
    return [Q(1, n)] * n, [Q(-1, n) if G.element_order(g) == 2 else Q(1, n) for g in range(n)]


def noncommutative_wedderburn_p3(H):
    """Wedderburn data for the 6-dimensional noncommutative case.

    The center Z(H), the kernel of the commutators with the basis, is
    split by commutative_wedderburn; each component unit e is a central
    idempotent of H, and the block eH has the component's dimension as its
    center dimension.  As e is central, eH is a two-sided ideal, so every
    left multiplication L_z restricts to it, and ker(L_z - a) and
    im(L_z - a) are right ideals of eH; when they are complementary, the
    eigen-split's units are idempotents of eH other than 0 and e.  The
    split is only asked whether it exists, and a scalar L_z, which has no
    such a, is skipped as in commutative_wedderburn.  A
    4-dimensional block with a 1-dimensional center is 2x2 matrices over
    it when it is semisimple and has such an idempotent, which a division
    algebra has not.  In characteristic 0 the block is semisimple exactly
    when the trace form t(xy), t(x) = Tr(L_x), has rank 4 on it: e is
    central, so for x, y in eH the operator L_xy vanishes on (1 - e)H and
    its trace on H is its trace on eH.  Any other block larger than 1, or
    a 4-dimensional one that fails either test, is "undetermined".
    """
    if H.dim != 6:
        raise ValueError("this routine handles dimension 6 only")
    if H.is_commutative():
        raise ValueError("use commutative_wedderburn for commutative input")
    n = H.dim
    # row j*n + k, column i: coordinate k of e_i e_j - e_j e_i, read off mult
    Z = Matrix.from_entries(n * n, n, (t for k in range(n) for ij, c in H.mult.row_entries(k)
                                       for i, j in [divmod(ij, n)]
                                       for t in ((j * n + k, i, c), (i * n + k, j, -c)))).kernel()
    mult = Z.solve(mul_kron(H.mult, Z, Z))
    unit = Z.solve(Matrix.from_columns([H.unit]))
    if mult is None or unit is None:
        raise CheckFailed("the center is not a subalgebra")

    operators = _candidate_operators(H)
    # t(e_i) = Tr(L_{e_i}) = sum_k mult[k, i*n + k]; column i*n + j is t(e_i e_j)
    trace_form = Matrix.from_entries(1, n, ((0, i, H.mult[k, i * n + k]) for i in range(n)
                                            for k in range(n))) * H.mult
    components = []
    for comp in commutative_wedderburn(Algebra(mult, unit.column(0))).components:
        e = Z * Matrix.from_columns([comp.unit])
        basis = kernel_form(H.mult_operator(e.column(0)))
        kind = KIND_FIELD if basis.cols == 1 else KIND_UNDETERMINED
        if basis.cols == 4 and comp.dim == 1:
            gram = mul_kron(trace_form, basis, basis).row_entries(0)
            if (Matrix.from_entries(4, 4, ((*divmod(ab, 4), c) for ab, c in gram)).rank() == 4
                    and _eigen_split(H, e, basis, operators())):
                kind = KIND_MATRIX2
        components.append(WedderburnComponent(basis.cols, comp.dim, kind, e.column(0), basis))
    if sum(c.dim for c in components) != H.dim:
        raise CheckFailed("block dimensions do not add up")
    return WedderburnReport(components)


def nilpotent_witness(L):
    """The square-zero element a*lam(s) + a z^2*lam(rs) + a z*lam(r^2 s)
    of L[lam(D_3)], as a coordinate vector (L must be a cubic model with
    basis 1, a, a^2, z, az, a^2z).

    The three reflection coefficients are a, r^2(a), r(a); conjugation
    rotates them along while fixing the slots' recursion, so the element
    is G-fixed, and its square vanishes because 1 + z + z^2 = 0.  Both
    claims are checked; on any other model one fails, with ValueError.
    """
    G = L.group
    if G.order != 6 or L.dim != 6:
        raise ValueError("nilpotent witness lives over the cubic D_3 model")
    lam = left_regular(G)
    A = group_algebra(L, lam)
    # the coefficients a, a z^2 = -a - az and az, as columns j = 0, 1, 2
    coeffs = Matrix.from_entries(6, 3, [(1, 0, ONE), (1, 1, -ONE), (4, 1, -ONE), (4, 2, ONE)])
    # e_t (x) e_j for the slot t of the j-th of s, rs, r^2 s
    picks = Matrix.from_entries(A.N.order * 3, 1, ((A.N.index_of(lam.elements[g]) * 3 + j, 0, ONE)
                                                   for j, g in enumerate((3, 4, 5))))
    b = A.slot_map(range(A.N.order), coeffs) * picks
    action = SemilinearAction(A)
    if (any(action.matrix(g) * b != b for g in G.generators)
            or mul_kron(A.mult, b, b) != Matrix.zeros(A.dim, 1)):
        raise ValueError("the witness is not a G-fixed square-zero element")
    return list(b.column(0))


# -- isomorphism classes ------------------------------------------------------

class PairEvidence(NamedTuple):
    """Outcome of comparing one pair of structures."""

    isomorphic: bool
    witness: object = None            # GroupIso when isomorphic
    induced_map_checked: bool = False
    certificate: list = None          # rejections when not isomorphic
    isos_tested: int = 0


class HopfIsoClassReport(NamedTuple):
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
    moved = _slots_permuted(Ha.provenance.parent, Ha.provenance.basis, iso.mapping)
    sol = Hb.provenance.basis.solve(moved)
    if sol is None:
        raise CheckFailed("induced image left the target fixed ring")
    return sol


def descend_catalog(p, L):
    """The catalog at p with every structure descended over L, as
    {label: presentation} in catalog order.

    descend reads N only through (N.group, conj_map), a key that all N_c
    share (module docstring), so it runs once per distinct key: for rho,
    lambda and N_0.  A later label with a seen key gets a new presentation
    over the same matrices and its own provenance, as hopf_action reads the
    elements of the parent's N.  Building the key still checks that N is
    normalized.
    """
    out, seen = {}, {}
    for e in catalog(p):
        A = group_algebra(L, e.subgroup)
        key = (e.subgroup.group, SemilinearAction(A).conj_map)
        if key in seen:
            H = seen[key]
            out[e.label] = HopfPresentation(
                H.mult, H.unit, H.comul, H.counit, H.antipode, names=H.names,
                provenance=H.provenance._replace(parent=A, label=e.label))
        else:
            out[e.label] = seen[key] = descend(A, label=e.label)
    return out


def _field_of(descended):
    """The one L that every presentation of `descended` was descended over;
    ValueError when there is not exactly one."""
    fields = {_provenance_of(H).parent.L for H in descended.values()}
    if len(fields) != 1:
        raise ValueError(f"the presentations are descended over {len(fields)} fields, not one")
    return fields.pop()


def hopf_iso_classes(descended):
    """Partition of the labels of `descended` (label -> presentation, all
    descended over one L) into Hopf isomorphism classes.

    Every pair is decided by the equivariant-isomorphism criterion on the
    subgroups N of the presentations' provenance, under conjugation by G;
    each positive answer is cross-checked by verifying the induced linear
    map on the presentations against all Hopf-map identities, and each
    negative answer records the exhaustive certificate.
    """
    G = _field_of(descended).group
    labels = list(descended)
    evidence = {}
    for a, b in combinations(labels, 2):
        Ha, Hb = descended[a], descended[b]
        isos, rejected = equivariant_iso_search(Ha.provenance.parent.N, Hb.provenance.parent.N, G)
        if isos:
            violation = hopf_map_violation(_induced_hopf_map(Ha, Hb, isos[0]), Ha, Hb)
            if violation is not None:
                raise CheckFailed(f"equivariant witness for ({a},{b}) fails: {violation}")
            evidence[(a, b)] = PairEvidence(True, witness=isos[0], induced_map_checked=True,
                                            isos_tested=len(isos) + len(rejected))
        else:
            cert = [(iso.mapping, (G.names[g], t)) for iso, (g, t) in rejected]
            evidence[(a, b)] = PairEvidence(False, certificate=cert, isos_tested=len(rejected))

    # each label's key is the first label equal or isomorphic to it
    first = {lab: next(la for la in labels if la == lab or evidence[(la, lab)].isomorphic)
             for lab in labels}
    classes = _group_by(labels, first.get)

    # consistency: evidence must agree with the partition
    for (la, lb), ev in evidence.items():
        if (first[la] == first[lb]) != ev.isomorphic:
            raise CheckFailed("pairwise evidence is not transitive")
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


def algebra_iso_classes_p3(descended):
    """Partition of the labels of `descended` (label -> presentation of
    dimension 6 or commutative, all descended over one L) by exact
    Wedderburn summary.

    The Wedderburn routines read only H.mult and H.unit, so each distinct
    (mult, unit) is split once: the N_c of descend_catalog share one."""
    _field_of(descended)
    reports, splits = {}, {}
    for lab, H in descended.items():
        key = (H.mult, H.unit)
        if key not in splits:
            splits[key] = (commutative_wedderburn if H.is_commutative() else
                           noncommutative_wedderburn_p3)(H)
        reports[lab] = splits[key]
    return _group_by(list(descended), lambda lab: reports[lab].summary()), reports
