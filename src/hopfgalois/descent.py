"""Galois descent for group algebras L[N].

For a regular subgroup N of Perm(G) normalized by left translations, the
group algebra L[N] carries the semilinear action

    g . (x * eta) = g(x) * (lam_g eta lam_g^-1),

and its fixed ring H is a Q-Hopf algebra of dimension |N|.  This module
computes H with exact structure constants, counit, antipode and
comultiplication, and provides the verification operations: Hopf axiom
report, the induced action of H on L with its module law and measuring
property, exact bijectivity of the Hopf-Galois map j: L (x) H -> End(L),
the base-change check L (x) H = L[N], and span comparison against
closed-form bases.

The route.  L has a normal element theta, one whose G-translates are a
basis of L (GaloisAlgebra.normal_translates finds and checks it: e = d[1]
over the split model, (1 + a + a^2)(1 + z) over cubic:v).  So L[N] is the
free Q[G]-module on the theta eta_t, as h.(theta eta_t) = h(theta)
eta_(h t h^-1) runs over the basis g(theta) eta_s once, and its fixed ring
has the basis of the traces of those generators (Speiser's proof of Galois
descent; Childs, Taming Wild Extensions, 2000, ch. 2; Greither-Pareigis
1987): the n columns X_t = Tr(theta eta_t) = sum over g of g(theta)
eta_(g t g^-1), which are G-fixed.  So dim H = n.  descend builds X with
one from_entries, takes B = kernel_form(X), the reproducible basis that
reports print, and checks that B has n columns and that G's generators
fix it.

The maps are read through the algebra map E: x eta -> (e x) eta, e the
model's idempotent.  E is injective on H: e h = 0 for a fixed h gives g(e)
h = g.(e h) = 0 for every g, and the distinct g(e) sum to 1.  E(H) lies in
R[N], R the span of e times the slot coefficients of B (_frame), a
subalgebra of eL that contains e, as two self-checking solves confirm; E_B
= E B, in the coordinates of R's basis J, is a basis of E(H).  Over the
split model R = Q d[1], so H is read in the 2p-dimensional Q[N], against
4p^2 for L[N]; over cubic:v, e = 1 and R is L^K, K the kernel of G's
conjugation action on N (Q, Q<1, w> or L).  The structure constants are
E_B^-1 mult_R[N] (E_B (x) E_B): one solve, which checks itself.  The unit,
counit and antipode are read through E_B too, the antipode image of E_B
being its rows re-indexed through N's inverses (_slots_permuted).

L[N] is an Algebra: its dim x dim^2 `mult` places L's multiplication in slot
tu for each slot pair (t, u); `pointwise`, that of Map(N, L), in slot t for
(t, t).  A product is one mul_kron over one of them, and descend builds only
those of R[N].  Maps of L[N] are sparse slot maps, GroupAlgebraOverL.slot_map
= permutation(images) (x) M.  The invariance check, E, Phi' and j multiply
slot coefficients (j: the action matrices) and put them back in slots
(_unslot), so they build no operator on L[N]; j flattens End(L)
column-major.  The closed-form bases are products of U = slot_map(id, 1),
W = slot_map(id, w) for the rational-square witness w of L, and the slot
inversion iota: U + iota U has the columns eta_t + eta_t^-1, and W - iota W
the columns w*(eta_t - eta_t^-1), w being read once per L
(GaloisAlgebra.sqrt_witness).  The action of H on L is built once, as
DescentProvenance.action, for the module, measuring and Hopf-Galois checks.

Comultiplication.  Map(N, L) shares the coordinates and G-action of L[N],
and E is multiplicative for its slot-by-slot product too, so E_B is also a
basis of E(H*) for the dual H* in Map(N, L), and Delta_H is the transpose
of H*'s slot-by-slot product, read through the Gram matrix P of the
pairing sum_t x_t y_t on E_B, the _unslot of its values (_comultiplication).
That pairing is e times the G-fixed one on H, so P is provably rational;
this implementation checks that exactly instead of assuming it.

Base change.  descend builds Phi': R (x) H -> R[N], x (x) h -> x*E(h) once,
for the base-change check alone.  Phi is bijective exactly when Phi' is:
eL (x)_R - carries Phi' to eL (x) H -> (eL)[N], x (x) h -> x e h = x h; G
carries that to each g(e)L (x) H -> g(e)L[N], H being fixed; and the
distinct g(e), idempotents of the etale L with sum 1, are orthogonal, so
Phi is the sum of those maps.  Conversely Phi' is a restriction of Phi.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from .algebra import (Algebra, CheckReport, HopfPresentation, action_report,
                      first_difference, hopf_axiom_report)
from .extensions import DescentError
from .groups import Perm, left_regular, powers
from .linalg import Matrix, ONE, ZERO, hstack, kernel_form, mul_kron, mul_kron_sum, vstack


class NormalizationError(RuntimeError):
    """N is not normalized by the left translations."""

    def __init__(self, g, eta):
        super().__init__(f"conjugate of {eta} by lam[{g}] leaves N")


class GroupAlgebraOverL(Algebra):
    """The group algebra L[N], basis (eta_t, e_a) at index t*dim(L) + a.

    L is any Algebra: descend frames R[N], for the span R of e times the
    coefficients of H, with it too, and group_algebra checks that a
    GaloisAlgebra L fits N.

    As (x eta_t)(y eta_u) = (xy) eta_(tu), column (t*d + a)*D + u*d + b of
    `mult` (d = dim L, D = dim L[N]) is column a*d + b of L.mult, placed in
    slot tu.  `mult` is built when first read, so an L[N] that only frames
    coordinates, as the one handed to descend, never builds it.
    """

    def __init__(self, L, N):
        self.L = L
        self.N = N
        d, n = L.dim, N.order
        self.dim = d * n
        unit = [ZERO] * self.dim
        e = N.group.identity
        unit[e * d:(e + 1) * d] = L.unit
        self.unit = tuple(unit)
        self.names = tuple(f"{L.names[a]}*{N.name_of(t)}" for t in range(n) for a in range(d))

    def _table(self, slots):
        """The dim x dim^2 matrix that places L's product of the coefficients
        of eta_t and eta_u in slot v, for each triple (t, u, v) of slots."""
        d, D = self.L.dim, self.dim
        lmult = [(c, *divmod(ab, d), x) for c in range(d) for ab, x in self.L.mult.row_entries(c)]
        return Matrix._adopt(D, D * D, (
            (v * d + c, (t * d + a) * D + u * d + b, x) for t, u, v in slots
            for c, a, b, x in lmult))

    @cached_property
    def mult(self):
        return self._table((t, u, tu) for t, row in enumerate(self.N.group.table)
                           for u, tu in enumerate(row))

    @cached_property
    def pointwise(self):
        """The product of Map(N, L) in the same coordinates, (x eta_t)(y eta_u)
        = [t = u] (xy) eta_t, n times sparser than `mult`."""
        return self._table((t, t, t) for t in range(self.N.order))

    def slot_map(self, images, M):
        """The map x * eta_t -> M(x) * eta_images[t], as permutation(images) (x) M.

        M acts on the L-coefficients; an M with another shape maps into or
        out of the slots of another coefficient space (a one-column M = u
        sends Q[N] to L[N], e_t -> u * eta_t).
        """
        return Matrix.permutation(images).kron(M)

    @cached_property
    def slot_sum(self):
        """The map sum_t x_t eta_t -> sum_t x_t of L[N] onto L, (1 ... 1) (x) I_L."""
        return Matrix(1, self.N.order, [ONE] * self.N.order).kron(Matrix.identity(self.L.dim))

    mul = Algebra.mul  # named in the class body, where the per-layer tracer wraps it


def group_algebra(L, N):
    """L[N] for a GaloisAlgebra L of G and N a subgroup of Perm(G)."""
    if N.degree != L.group.order:
        raise ValueError("N must permute the points of G")
    return GroupAlgebraOverL(L, N)


class SemilinearAction:
    """The twisted G-action on L[N]: Galois on coefficients, conjugation on N.

    Conjugation position maps are computed eagerly (this is where a
    normalization failure surfaces, with the offending pair); the action
    matrices themselves are built on demand.  Only the generators of G are
    conjugated: conjugation by gh is conjugation by g after h, so the other
    maps are composed along G's walk (FiniteGroup.extend).  When a generator
    does not normalize N, every element is conjugated, so the error names
    the same first (g, eta) as a full table.
    """

    def __init__(self, parent):
        self.parent = parent
        L, N = parent.L, parent.N
        G = L.group
        lam = left_regular(G).elements
        gens = {g: N.conjugation(lam[g]) for g in G.generators}
        if any(None in row for row in gens.values()):
            for g, lamg in enumerate(lam):
                row = N.conjugation(lamg)
                if None in row:
                    raise NormalizationError(G.names[g], N.name_of(row.index(None)))
        self.conj_map = tuple(c.images for c in G.extend(
            {g: Perm(row) for g, row in gens.items()}, Perm.identity(N.order)))
        self._matrices = {}

    def matrix(self, g):
        """x * eta_t -> g(x) * eta_conj(t)."""
        if g not in self._matrices:
            A = self.parent
            self._matrices[g] = A.slot_map(self.conj_map[g], A.L.action[g])
        return self._matrices[g]

    def verify(self):
        """Exact invariants as a CheckReport: an action of G by Q-algebra maps."""
        A = self.parent
        return action_report(A.L.group, self.matrix, A.mult)


class DescentProvenance(namedtuple("DescentProvenance", "parent basis phi label",
                                   defaults=(None,))):
    """How a HopfPresentation was obtained: fixed ring of which L[N].

    phi is the base change Phi': R (x) H -> R[N], lform_matrix(R[N], E_B), for
    descend's frame R, a subalgebra of eL that contains e, read only by
    base_change_is_group_algebra: Phi is bijective exactly when Phi' is.
    """

    @cached_property
    def action(self):
        """hopf_action, built once: it depends only on the parent and the basis."""
        return _action_matrices(self.parent, self.basis)


def _solved(B, rhs, failure):
    """B.solve(rhs), or DescentError(failure) when it has no solution."""
    sol = B.solve(rhs)
    if sol is None:
        raise DescentError(failure)
    return sol


def _rational_coefficients(L, z, context):
    """The rational c with z = (u (x) I) c, u the unit of L: each L.dim-block of
    a column of z must be a rational multiple of u; DescentError otherwise."""
    return _solved(Matrix.from_columns([L.unit]).kron(Matrix.identity(z.rows // L.dim)), z,
                   f"{context}: expected a rational multiple of the unit")


def descend(A, label=None):
    """The fixed ring of L[N] as an exact Hopf presentation over Q.

    X, the traces of theta eta_t, is a basis of the fixed ring, and B =
    kernel_form(X) is found before any structure map, so the output is
    reproducible.  Every structure map is then read once through E_B, the
    image of B in R[N] (see the module docstring).
    """
    act, L, N, n = SemilinearAction(A), A.L, A.N, A.N.order
    d, theta = L.dim, L.normal_translates
    # column t is Tr(theta eta_t), the sum over g of g(theta) eta_(g t g^-1)
    X = Matrix.from_entries(A.dim, n, (
        (conj[t] * d + a, t, x) for g, conj in enumerate(act.conj_map)
        for a, x in theta.row_entries(g) for t in range(n)))
    B = kernel_form(X)
    if B.cols != n:
        raise DescentError(f"fixed ring has dimension {B.cols}, expected {n}")
    coeffs = _slot_coefficients(B, d)
    if any(_unslot(m * coeffs, act.conj_map[g]) != B for g, m in L.generator_action.items()):
        raise DescentError("the trace basis is not fixed by G")
    ecoeffs = L.mult_operator(L.idempotent) * coeffs
    R, J = _frame(L, ecoeffs)
    RA = GroupAlgebraOverL(R, N)
    # E_B = E B, the coefficients e x of B in J's coordinates
    EB = _unslot(_solved(J, ecoeffs, "e times a coefficient of H left R"), range(n))
    # column i*n + j is h_i h_j
    mult = _solved(EB, mul_kron(RA.mult, EB, EB), "a product of fixed vectors left the fixed ring")
    unit = _solved(EB, Matrix.from_columns([RA.unit]), "the unit of L[N] is not in the fixed ring")
    counit = _rational_coefficients(R, RA.slot_sum * EB, "counit")
    antipode = _solved(EB, _slots_permuted(RA, EB, N.group.inverses),
                       "an antipode image left the fixed ring")
    comul = _comultiplication(RA, EB)
    prov = DescentProvenance(parent=A, basis=B, phi=lform_matrix(RA, EB), label=label)
    return HopfPresentation(mult, unit.column(0), comul, counit, antipode,
                            names=tuple(f"h{k}" for k in range(n)), provenance=prov)


def _frame(L, ecoeffs):
    """(R, J): the span R of the columns of ecoeffs, e times the slot
    coefficients of H's basis, as a plain Algebra on J, the kernel_form of
    their distinct nonzero columns (a zero or repeated column would make
    kernel_form row-reduce), with unit e.  Both closure solves check
    themselves: R is a subalgebra of eL that contains e."""
    rows = ecoeffs.transpose()
    cols = {tuple(rows.row_entries(k)): None for k in range(rows.rows) if rows.row_entries(k)}
    J = kernel_form(Matrix._adopt(L.dim, len(cols), (
        (a, c, x) for c, col in enumerate(cols) for a, x in col)))
    fail = "e times the coefficients of H do not span a subalgebra of eL"
    return Algebra(_solved(J, mul_kron(L.mult, J, J), fail),
                   _solved(J, Matrix.from_columns([L.idempotent]), fail).column(0)), J


def _unslot(coeffs, images):
    """slot_map(images, I) * B for coeffs = _slot_coefficients(B, coeffs.rows),
    the inverse of _slot_coefficients with a slot relabel: column k*n + t of
    coeffs, the coefficient of eta_t in column k, goes to eta_images[t].  So
    slot_map(images, M) * B is _unslot(M * coeffs, images), and no operator
    on L[N] is built."""
    n, m = len(images), coeffs.rows
    return Matrix._adopt(n * m, coeffs.cols // n, (
        (images[t] * m + a, k, x) for a in range(m) for kt, x in coeffs.row_entries(a)
        for k, t in [divmod(kt, n)]))


def _slots_permuted(A, B, images):
    """slot_map(images, I) * B, eta_t -> eta_images[t] on the columns of B: row
    images[t]*d + a is row t*d + a of B, so row s*d + a is read from the
    inverse image of s, and no dim x dim operator is built."""
    d, inv = A.L.dim, Perm(images).inverse().images
    return B.take_rows([inv[s] * d + a for s in range(A.N.order) for a in range(d)])


def _slot_coefficients(B, d):
    """The d x (B.cols * n) matrix, n = B.rows / d slots, whose column k*n + t
    is the coefficient of eta_t in column k of B."""
    n = B.rows // d
    return Matrix._adopt(d, B.cols * n, (
        (a, k * n + t, c) for r in range(B.rows) for t, a in [divmod(r, d)]
        for k, c in B.row_entries(r)))


def lform_matrix(A, B):
    """Matrix of Phi: L (x) H -> L[N], x (x) h -> x*h; column (a, k) = a*m + k
    is e_a * h_k, whose coefficient of eta_t is e_a x_kt for x_kt that of h_k.
    Column (a*m + k)*n + t of one mul_kron of L.mult over I_L and the slot
    coefficients of B is that coefficient, so Phi is its _unslot: it reads
    L.mult and never a table of L[N]."""
    d = A.L.dim
    return _unslot(mul_kron(A.L.mult, Matrix.identity(d), _slot_coefficients(B, d)),
                   range(A.N.order))


def _comultiplication(A, B):
    """The comultiplication of the fixed ring with basis B of A = R[N], read
    off the dual H* in Map(N, R), whose product is A.pointwise.

    Proof.  <x, y> = slot_sum(x y), with the product pointwise, is R-bilinear,
    and Delta(eta_t) = eta_t (x) eta_t gives <Delta h_k, h_a (x) h_b> =
    sum_t x_kt x_at x_bt = <h_k, h_a h_b>.  D acts by algebra maps of R and
    permutations of the slots, so h_a h_b = sum_m M*_m,ab h_m with M* = B^-1 W,
    and P = (<h_i, h_j>) lies in R^D = Q 1, which is checked.  For C the
    n x n^2 matrix of Delta h_k = sum C_k,ij h_i (x) h_j that reads C (P (x) P)
    = P M*, so C = P M* (P^-1 (x) P^-1), and comul = C^T.  An invertible P
    gives B full column rank, and, the pairing being R-bilinear, makes Phi'
    injective, so bijective.
    """
    n = B.cols
    W = mul_kron(A.pointwise, B, B)  # column i*n + j is h_i h_j, slot by slot
    gram = _rational_coefficients(A.L, A.slot_sum * W, "comultiplication")
    # _unslot gives P^T, which is P: the pairing on the commutative R is symmetric
    P = _unslot(gram, range(n))
    P_inv = P.inverse()
    if P_inv is None:
        raise DescentError("the pairing <x, y> = sum_t x_t y_t is degenerate on the fixed ring")
    dual = _solved(B, W, "a slot-by-slot product of fixed vectors left the fixed ring")
    return mul_kron(P * dual, P_inv, P_inv).transpose()


def _provenance_of(H):
    if H.provenance is None:
        raise ValueError("operation needs a presentation produced by descend()")
    return H.provenance


def hopf_action(H):
    """Action matrices of the basis of H on L, kept on the provenance of H.

    Each eta in N acts on L as the Galois automorphism eta^-1[identity],
    extended L-linearly over the coefficients:
    (sum_t x_t eta_t) . y = sum_t x_t * (eta_t^-1[1])(y).
    """
    return _provenance_of(H).action


def _action_matrices(A, B):
    """M_k = sum_t L.mult_operator(x_kt) * L.action[eta_t^-1[1]] for x_kt the
    L-coefficient of eta_t in column k of B, read off two mul_krons.  Column
    k*n + t of X is x_kt, so column (k*n + t)*d + b of L.mult (X (x) I_d) is
    x_kt * e_b; times I_m (x) S, with S the n*d x d stack of the Galois
    matrices, column k*d + c is column c of M_k."""
    L = A.L
    G = L.group
    d, m = L.dim, B.cols
    X = _slot_coefficients(B, d)
    S = vstack(*[L.action[eta.inverse()(G.identity)] for eta in A.N.elements])
    stacked = mul_kron(mul_kron(L.mult, X, Matrix.identity(d)), Matrix.identity(m), S)
    entries = [[] for _ in range(m)]
    for p in range(d):
        for kc, x in stacked.row_entries(p):
            k, c = divmod(kc, d)
            entries[k].append((p, c, x))
    return [Matrix._adopt(d, d, e) for e in entries]


def module_report(H):
    """Exact check that L is an H-module: 1.x = x and (hh').x = h.(h'.x).

    With S = (M_0 ... M_{n-1}) the action matrices of the basis of H side by
    side (d x nd, d = dim L) and u the unit of H, the unit law is M_1 =
    S (u (x) I_d) = I_d, one mul_kron.  For h in H with left multiplication
    L_h on H, column b*d + c of S (L_h (x) I_d) is column c of M_(h h_b), and
    of M_h S that of M_h M_b, so the law at h is M_h S = S (L_h (x) I_d).

    The lemma: let T be the set of h with M_(hb) = M_h M_b for every b.  T
    is a subspace.  When H is unital and associative and M_1 = I, 1 lies in
    T, and T is closed under products, as for h, h' in T and every b,
    M_((hh')b) = M_(h(h'b)) = M_h M_(h'b) = M_h M_h' M_b = M_(hh') M_b, the
    last step being h in T at b = h'.  So T holds every word
    g_1(g_2(...(g_k 1))) in the generators g of `H.generators`, which span
    H, and the law need only be checked at those g: nd of the n^2 d columns
    per generator.  When M_1 != I or H's Hopf axiom report fails, or the
    reduced identity does, the full identity over every basis vector runs,
    so a failure names the same first (h_k, h_b, e_c) as it alone.
    """
    L = _provenance_of(H).parent.L
    d, n = L.dim, H.dim
    mats = hopf_action(H)
    S, one = hstack(*mats), Matrix.identity(d)
    report = CheckReport()

    col = first_difference((mul_kron(S, Matrix.from_columns([H.unit]), one), one))
    report.add("module-unit", col is None,
               None if col is None else f"1.{L.names[col]} != {L.names[col]}")

    gens = H.generators if col is None and hopf_axiom_report(H).passed else None
    col = None
    if gens is None or any(mats[g] * S != mul_kron(S, op, one)
                           for g, op in zip(gens.indices, gens.operators)):
        col = first_difference((hstack(*[m * S for m in mats]), mul_kron(S, H.mult, one)))
    if col is None:
        report.add("module-law", True)
    else:
        k, bc = divmod(col, n * d)
        b, c = divmod(bc, d)
        report.add("module-law", False, f"module law fails at (h{k}, h{b}, {L.names[c]})")
    return report


def measuring_report(H):
    """Exact check that H measures L: h.(xy) = sum (h1.x)(h2.y), h.1 = eps(h)1.

    With M_k the action of h_k on L, the laws are M_k u_L = eps(h_k) u_L and
    M_k m_L = m_L (sum of c M_i (x) M_j over the terms c h_i (x) h_j of
    Delta(h_k)), stacked side by side over k, with each m_L (M_i (x) M_j) one
    mul_kron.  The action matrices are built once per provenance.

    The lemma: let T be the set of h with h.(xy) = sum (h1.x)(h2.y) for all
    x and y, a subspace.  When L is an H-module (module_report) and Delta
    is an algebra map (H's Hopf axiom report), 1 lies in T, as M_1 = I and
    Delta(1) = 1 (x) 1, and T is closed under products: for h, h' in T,
    (hh').(xy) = h.(h'.(xy)) = h.(sum (h'1.x)(h'2.y)) = sum (h1 h'1.x)(h2
    h'2.y), which is sum ((hh')1.x)((hh')2.y) as Delta(hh') = Delta(h)
    Delta(h').  So T holds every word in the generators of `H.generators`,
    which span H, and when both reports pass the product law is compared
    on the generators' columns only: d^2 of the n d^2.  When a report or
    the reduced identity fails, the full identity runs, so every verdict
    and first counterexample is that of the full identity.
    """
    L = _provenance_of(H).parent.L
    d = L.dim
    mats = hopf_action(H)
    u = Matrix.from_columns([L.unit])
    report = CheckReport()

    col = first_difference((hstack(*[m * u for m in mats]), u * H.counit))
    report.add("measures-unit", col is None,
               None if col is None else f"h{col}.1 != eps(h{col})1")

    zero = Matrix.zeros(d, d * d)

    def first_failure(ks):
        """The first column of the full identity, (k*d + a)*d + b, at which
        the law fails for some k in ks, or None."""
        rhs = [mul_kron_sum(L.mult, terms) if terms else zero for terms in (
            [(c, mats[i], mats[j]) for (i, j), c in H.comul_terms(k).items()] for k in ks)]
        col = first_difference((hstack(*[mats[k] * L.mult for k in ks]), hstack(*rhs)))
        return None if col is None else ks[col // (d * d)] * d * d + col % (d * d)

    reduced = hopf_axiom_report(H).passed and module_report(H).passed
    col = first_failure(H.generators.indices if reduced else range(H.dim))
    if col is not None and reduced:
        col = first_failure(range(H.dim))
    if col is None:
        report.add("measures-products", True)
    else:
        k, ab = divmod(col, d * d)
        a, b = divmod(ab, d)
        report.add("measures-products", False,
                   f"measuring fails at (h{k}, {L.names[a]}, {L.names[b]})")
    return report


def hopf_galois_matrix(L, action_matrices):
    """Matrix of j: L (x) H -> End(L), x (x) h -> (y -> x*(h.y)).

    Endomorphisms are flattened column-major, (p, q) at row q*d + p; column
    (a, k) is a*|H| + k.  Entry (p, (a*|H| + k)*d + q) of L.mult (I_d (x) (M_0
    ... M_|H|-1)) is entry (p, q) of e_a M_k, so j is its _unslot, as Phi' is
    in lform_matrix with the action matrices for the slot coefficients.
    """
    d = L.dim
    return _unslot(mul_kron(L.mult, Matrix.identity(d), hstack(*action_matrices)), range(d))


class HopfGaloisCheck(NamedTuple):
    rank: int
    expected: int
    passed: bool


def verify_hopf_galois(H):
    """Exact bijectivity of j: L (x) H -> End_Q(L)."""
    L = _provenance_of(H).parent.L
    j = hopf_galois_matrix(L, hopf_action(H))
    rank = j.rank()
    expected = L.dim * L.dim
    return HopfGaloisCheck(rank=rank, expected=expected,
                           passed=(rank == expected and j.cols == expected))


def base_change_is_group_algebra(H):
    """Whether L (x) H -> L[N] is bijective (H is an L-form of L[N]), read off
    the Phi' = lform_matrix(R[N], E_B): R (x) H -> R[N] that descend built and
    kept, for its frame R: Phi' is square with full rank, which holds exactly
    when Phi is bijective (the module docstring)."""
    phi = _provenance_of(H).phi
    return phi.cols == phi.rows and phi.rank() == phi.rows


# -- closed-form bases --------------------------------------------------------

def explicit_classical_basis(A):
    """Basis {1 * eta_t}, the matrix U: valid when conjugation fixes N pointwise,
    that is when every generator of G centralizes N."""
    G, fixed = A.L.group, tuple(range(A.N.order))
    lam = left_regular(G).elements
    if any(A.N.conjugation(lam[g]) != fixed for g in G.generators):
        raise ValueError("classical basis needs a centralized N")
    return A.slot_map(range(A.N.order), Matrix.from_columns([A.L.unit]))


def inverse_pair_columns(A, sums, differences):
    """The columns eta_t + eta_t^-1 at the slots `sums`, then w*(eta_t - eta_t^-1)
    at `differences`, with w the rational-square witness of L."""
    return Matrix.from_entries(A.dim, len(sums) + len(differences),
                               _inverse_pair_entries(A, sums, differences))


def _inverse_pair_entries(A, sums, differences):
    """The (row, column, value) entries of inverse_pair_columns, straight from
    the slots: a column holds the unit of L at slots t and iota(t), or w at t
    and -w at iota(t), and from_entries adds a repeated slot to 2 (the
    identity) or 0 (a difference at an involution)."""
    inv, d, k = A.N.group.inverses, A.L.dim, len(sums)
    u, w = A.L.unit, A.L.sqrt_witness
    pairs = ([(c, t, u, u) for c, t in enumerate(sums)]
             + [(k + c, t, w, [-y for y in w]) for c, t in enumerate(differences)])
    return ((x * d + a, c, y) for c, t, at_t, at_inv in pairs
            for x, v in ((t, at_t), (inv[t], at_inv)) for a, y in enumerate(v) if y)


def explicit_translation_basis(A):
    """Closed-form basis of the fixed ring of L[lam(G)] for dihedral G.

    With w the rational-square witness (r(w) = w, s(w) = -w) and y running
    over a basis Y of the s-fixed subalgebra:

      1,
      lam(r^i) + lam(r^(p-i))        and   w*(lam(r^i) - lam(r^(p-i))),
      sum_i r^((p+1)/2 * i)(y) * lam(r^i s).

    The first two lines are inverse_pair_columns (1 as 2 * lam(1)).  The
    reflection coefficients solve the fixedness recursion b_{i+2} = r(b_i)
    on the coefficients of lam(r^i s): the last line holds the columns of
    r^((p+1)/2 * i) Y at the slot of r^i s, written straight to that slot
    from one product of the p stacked Galois matrices with Y.
    """
    L = A.L
    G = L.group
    lam = left_regular(G)
    if A.N.canonical_key() != lam.canonical_key():
        raise ValueError("translation basis needs N = lam(G)")
    r_idx, s_idx = G.generators
    rpow = powers(G.mul, r_idx, G.identity)  # rpow[i] = r^i
    p = len(rpow)
    slot = [A.N.index_of(lam.elements[g]) for g in range(G.order)]
    step = (p + 1) // 2
    rotations = [slot[rpow[i]] for i in range(1, step)]
    pairs, d, Y = 2 * len(rotations) + 1, L.dim, L.fixed_space([s_idx])
    # row block i is r^((p+1)/2 * i) Y, the coefficient of lam(r^i s)
    blocks = vstack(*[L.action[rpow[step * i % p]] for i in range(p)]) * Y
    return Matrix.from_entries(A.dim, pairs + Y.cols, [
        *_inverse_pair_entries(A, [slot[G.identity]] + rotations, rotations),
        *((slot[G.mul(rpow[i], s_idx)] * d + a, pairs + c, x) for ia in range(p * d)
          for i, a in [divmod(ia, d)] for c, x in blocks.row_entries(ia))])


def explicit_cyclic_basis(A, gen):
    """Closed-form basis for a cyclic N = <gen> of order 2p:

    1, gen^p, gen^i + gen^(2p-i), w*(gen^i - gen^(2p-i)) for i = 1..p-1,
    with w the rational-square witness of L (1 and gen^p taken as 2 and 2 gen^p).
    """
    n = A.N.order
    cycle = powers(Perm.__mul__, gen, Perm.identity(gen.degree))  # cycle[k] = gen^k
    if n % 2 or gen not in A.N or len(cycle) != n:
        raise ValueError("need a generator of a cyclic N of even order")
    p = n // 2
    slot = [A.N.index_of(x) for x in cycle]
    return inverse_pair_columns(A, [slot[0], slot[p]] + slot[1:p], slot[1:p])


def explicit_basis_matches(H, kind, gen=None):
    """Span equality of the descended basis with a closed-form basis.

    The basis is in kernel_form, so each of its columns owns a row, and
    basis.solve(ref) reads X off those rows with no elimination and checks
    basis * X = ref: ref lies in the span.  The basis has full column rank,
    so the spans are equal exactly when X has rank basis.cols.
    """
    prov = _provenance_of(H)
    A = prov.parent
    if kind == "classical":
        ref = explicit_classical_basis(A)
    elif kind == "translation":
        ref = explicit_translation_basis(A)
    elif kind == "cyclic":
        if gen is None:
            raise ValueError("cyclic basis needs the generator")
        ref = explicit_cyclic_basis(A, gen)
    else:
        raise ValueError(f"unknown basis kind {kind!r}")
    X = prov.basis.solve(ref)
    return X is not None and X.rank() == prov.basis.cols


def descend_and_verify(L, entry):
    """(H, report) for the catalog entry's structure over L: descend, then the
    Hopf axioms (named axiom:<name>), the bijectivity of j, the base change,
    measuring and the entry's closed-form basis, in that order."""
    H = descend(group_algebra(L, entry.subgroup), label=entry.label)
    report = CheckReport(c._replace(name=f"axiom:{c.name}") for c in hopf_axiom_report(H))
    hg = verify_hopf_galois(H)
    report.add("action-bijective", hg.passed, f"rank {hg.rank} of {hg.expected}")
    report.add("base-change-recovers-group-algebra", base_change_is_group_algebra(H))
    report.extend(measuring_report(H))
    report.add(f"explicit-basis-{entry.basis_kind}",
               explicit_basis_matches(H, entry.basis_kind, gen=entry.generator))
    return H, report
