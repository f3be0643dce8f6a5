"""Galois descent for group algebras L[N].

For a regular subgroup N of Perm(G) normalized by left translations, the
group algebra L[N] carries the semilinear action

    g . (x * eta) = g(x) * (lam_g eta lam_g^-1),

and its fixed ring H is a Q-Hopf algebra of dimension |N|.  This module
computes H with exact structure constants, counit, antipode and
comultiplication, and provides the verification operations: Hopf axiom
report, the induced action of H on L with its measuring property, exact
bijectivity of the Hopf-Galois map j: L (x) H -> End(L), the base-change
check L (x) H = L[N], and span comparison against closed-form bases.

The route.  Let K be the kernel of G's conjugation action on N (action_kernel:
the g whose conjugation map fixes N pointwise).  K acts on L[N] through the
coefficients only, so H = (L^K[N])^G, and descend works in L^K[N]: L^K is a
GaloisAlgebra of the same G on the basis F = L.fixed_space(K), and G acts on
it through G/K.  L^K is Q for rho (K = G), Q<1, w> for every N_c (K = <r>),
and a copy of L for lambda (K = 1, F = I).  The fixed basis of L^K[N] is
written back as X = (I (x) F) fixed_basis, and B = kernel_form(X) is the
fixed basis of all of L[N].  It is found first, and every structure map is
read over its preimage B' in L^K[N].  DescentProvenance keeps L[N] and B, so
every check of H reads L[N] coordinates; the given L[N] is only a coordinate
frame, and no check builds its multiplication table.

L[N] is an Algebra: its dim x dim^2 `mult` places L's multiplication in slot
tu for each slot pair (t, u), and every product in L[N] is one mul_kron over
it.  The structure constants of H are the solve of mult (B' (x) B'), Phi' is
mult (E (x) B') for the embedding E: x -> x * eta_1 of L^K, and the
semilinear-action check reads `mult` directly.  Maps of L[N] are sparse slot
maps, GroupAlgebraOverL.slot_map = permutation(images) (x) M, with slots(u)
(column t is u * eta_t) its one-column case.  The closed-form bases are
products of U = slots(1), W = slots(w) for the rational-square witness w of
L, and the slot inversion iota: U + iota U has the columns eta_t + eta_t^-1,
and W - iota W the columns w*(eta_t - eta_t^-1).  The action of H on L is
built once, as DescentProvenance.action, for the measuring and Hopf-Galois
checks.  Comultiplication descends through the base-change map
Phi': L^K (x) H -> L^K[N], x (x) h -> x*h, which descend builds once and
keeps on DescentProvenance.phi for the base-change check.  Applying Phi'^-1
to Delta(h) = sum_t x_t (eta_t (x) eta_t) one tensor leg at a time, as one
sparse product per leg, rewrites it over h_i (x) h_j; the coefficients are
provably rational, and this implementation checks that exactly instead of
assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import Algebra, CheckReport, HopfPresentation, action_report, first_difference
from .extensions import GaloisAlgebra, quadratic_sqrt_witness
from .groups import Perm, greedy_generators, left_regular, powers
from .linalg import Matrix, ONE, ZERO, fixed_basis, hstack, kernel_form, mul_kron, vstack


class DescentError(RuntimeError):
    """An exact identity that descent theory guarantees failed to hold."""


class NormalizationError(RuntimeError):
    """N is not normalized by the left translations."""

    def __init__(self, g, eta):
        super().__init__(f"conjugate of {eta} by lam[{g}] leaves N")


class GroupAlgebraOverL(Algebra):
    """The group algebra L[N], basis (eta_t, e_a) at index t*dim(L) + a.

    As (x eta_t)(y eta_u) = (xy) eta_(tu), column (t*d + a)*D + u*d + b of
    `mult` (d = dim L, D = dim L[N]) is column a*d + b of L.mult, placed in
    slot tu.  `mult` is built when first read, so an L[N] that only frames
    coordinates, as the one handed to descend, never builds it.
    """

    def __init__(self, L, N):
        if N.degree != L.group.order:
            raise ValueError("N must permute the points of G")
        self.L = L
        self.N = N
        d, n = L.dim, N.order
        self.dim = d * n
        unit = [ZERO] * self.dim
        e = N.group.identity
        unit[e * d:(e + 1) * d] = L.unit
        self.unit = tuple(unit)
        self.names = tuple(f"{L.names[a]}*{N.name_of(t)}" for t in range(n) for a in range(d))

    @cached_property
    def mult(self):
        d, D = self.L.dim, self.dim
        lmult = [(c, *divmod(ab, d), x) for c in range(d) for ab, x in self.L.mult.row_entries(c)]
        return Matrix.from_entries(D, D * D, (
            (tu * d + c, (t * d + a) * D + u * d + b, x)
            for t, row in enumerate(self.N.group.table) for u, tu in enumerate(row)
            for c, a, b, x in lmult))

    def slot_map(self, images, M=None):
        """The map x * eta_t -> M(x) * eta_images[t], as permutation(images) (x) M.

        M acts on the L-coefficients and defaults to the identity of L; an
        M with another shape maps into or out of the slots of another
        coefficient space (a one-column M = u sends Q[N] to L[N], e_t -> u * eta_t).
        """
        if M is None:
            M = Matrix.identity(self.L.dim)
        return Matrix.permutation(images).kron(M)

    def slots(self, u):
        """The dim x |N| matrix whose column t is u * eta_t: slot_map(identity, u)."""
        return self.slot_map(range(self.N.order), Matrix.from_columns([u]))

    def mul(self, x, y):
        """x * y as mult (x (x) y) on one-column matrices, without the
        per-column index of `mult` that Algebra.mul builds."""
        self._check_length(x, y)
        return list(mul_kron(self.mult, Matrix.from_columns([x]),
                             Matrix.from_columns([y])).column(0))


def group_algebra(L, N):
    return GroupAlgebraOverL(L, N)


class SemilinearAction:
    """The twisted G-action on L[N]: Galois on coefficients, conjugation on N.

    Conjugation position maps are computed eagerly (this is where a
    normalization failure surfaces, with the offending pair); the action
    matrices themselves are built on demand.
    """

    def __init__(self, parent):
        self.parent = parent
        L, N = parent.L, parent.N
        G = L.group
        self.conj_map = tuple(N.conjugation(lamg) for lamg in left_regular(G).elements)
        for g, row in enumerate(self.conj_map):
            if None in row:
                raise NormalizationError(G.names[g], N.name_of(row.index(None)))
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


@dataclass
class DescentProvenance:
    """How a HopfPresentation was obtained: fixed ring of which L[N]."""

    parent: GroupAlgebraOverL
    basis: Matrix
    phi: Matrix  # the base change Phi': L^K (x) H -> L^K[N], as lform_matrix over L^K[N] and B'
    label: str = None

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


def action_kernel(act):
    """K, the elements g of G whose conjugation fixes N pointwise (the kernel
    of G -> Aut(N)), read off the conjugation maps of a SemilinearAction."""
    fixed = tuple(range(act.parent.N.order))
    return [g for g, row in enumerate(act.conj_map) if row == fixed]


def _fixed_coefficients(act):
    """(F, L^K[N]) for K = action_kernel(act), over the L[N] of act.

    F is the basis L.fixed_space(K) of L^K, taken over greedy_generators of K
    (F = I when K = 1).  L^K is a GaloisAlgebra of the same G, which acts on it
    through G/K: mult F^-1 m_L (F (x) F), unit F^-1 u and action F^-1 g F.
    """
    L = act.parent.L
    G = L.group
    F = L.fixed_space(greedy_generators(G.table, G.identity, action_kernel(act)))
    fail = "L^K is not closed under the product and the Galois action"
    LK = GaloisAlgebra(_solved(F, mul_kron(L.mult, F, F), fail),
                       _solved(F, Matrix.from_columns([L.unit]), fail).column(0),
                       G, [_solved(F, m * F, fail) for m in L.action])
    return F, group_algebra(LK, act.parent.N)


def descend(A, label=None):
    """The fixed ring of L[N] as an exact Hopf presentation over Q.

    K acts on L[N] through the coefficients only, so the fixed ring is
    computed in L^K[N] (see _fixed_coefficients).  Its fixed_basis there is
    written back to L[N] as X by the algebra embedding I (x) F, and the basis
    B = kernel_form(X), the fixed_basis of L[N] itself, is found before any
    structure map, so the output is reproducible.  B' is the preimage of B
    under I (x) F: the fixed_basis of L^K[N] when B == X, and otherwise one
    solve against the owned rows of I (x) F.  Every structure map is read
    once over B', whose coordinates are those of B.
    """
    act = SemilinearAction(A)
    F, AK = _fixed_coefficients(act)
    n = A.N.order
    # G acts on L^K[N] by SemilinearAction.matrix over act's one conjugation table
    gens = [AK.slot_map(act.conj_map[g], AK.L.action[g]) for g in A.L.group.generators]
    Bk = fixed_basis(gens, AK.dim)
    if Bk.cols != n:
        raise DescentError(f"fixed ring has dimension {Bk.cols}, expected {n}")
    lift = Matrix.identity(n).kron(F)
    X = lift * Bk
    B = kernel_form(X)
    if B != X:
        Bk = _solved(lift, B, "the fixed ring of L[N] is not written over L^K")

    # column i*n + j is h_i h_j
    mult = _solved(Bk, mul_kron(AK.mult, Bk, Bk), "a product of fixed vectors left the fixed ring")
    unit = _solved(Bk, Matrix.from_columns([AK.unit]), "the unit of L[N] is not in the fixed ring")
    slot_sums = Matrix(1, n, [ONE] * n).kron(Matrix.identity(AK.L.dim)) * Bk
    counit = _rational_coefficients(AK.L, slot_sums, "counit")
    antipode = _solved(Bk, AK.slot_map(A.N.group.inverses) * Bk,
                       "an antipode image left the fixed ring")
    comul, phi = _descended_comultiplication(AK, Bk)
    prov = DescentProvenance(parent=A, basis=B, phi=phi, label=label)
    names = tuple(f"h{k}" for k in range(n))
    return HopfPresentation(mult, unit.column(0), comul, counit, antipode,
                            names=names, provenance=prov)


def lform_matrix(A, B):
    """Matrix of Phi: L (x) H -> L[N], x (x) h -> x*h, as mult (E (x) B) with E the
    embedding x -> x * eta_1; column (a, k) = a*n + k is e_a * h_k."""
    eta_1 = Matrix.from_entries(A.N.order, 1, [(A.N.group.identity, 0, ONE)])
    return mul_kron(A.mult, eta_1.kron(Matrix.identity(A.L.dim)), B)


def _descended_comultiplication(A, B):
    """The comultiplication of the fixed ring with basis B, and Phi."""
    d, n = A.L.dim, B.cols
    phi = lform_matrix(A, B)
    phi_inv = phi.inverse()
    if phi_inv is None:
        raise DescentError("base change L (x) H -> L[N] is not invertible")
    # stage 1: column k*n + t of `pieces` is the term x_t eta_t of h_k, and
    # Phi^-1 writes it as sum_i y_i h_i over L, so Delta(h_k) = sum_i h_i (x) w_i
    # with w_i = sum_t y_i eta_t, column k*n + i of `w`
    pieces = Matrix.from_entries(A.dim, n * n, ((r, k * n + r // d, c) for k in range(n)
                                               for r, c in B.column_entries(k).items()))
    y = phi_inv * pieces
    entries = []
    for r in range(y.rows):
        a, i = divmod(r, n)
        for kt, c in y.row_entries(r):
            k, t = divmod(kt, n)
            entries.append((t * d + a, k * n + i, c))
    w = Matrix.from_entries(A.dim, n * n, entries)
    # stage 2: w_i = sum_j c_ij h_j, and every c_ij must be rational
    coeffs = _rational_coefficients(A.L, phi_inv * w, "comultiplication")
    comul = Matrix.from_entries(n * n, n, ((i * n + j, k, c) for j in range(n)
                                           for ki, c in coeffs.row_entries(j)
                                           for k, i in [divmod(ki, n)]))
    return comul, phi


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
    d, n, m = L.dim, A.N.order, B.cols
    X = Matrix.from_entries(d, m * n, ((a, k * n + t, c) for k in range(m)
                                       for r, c in B.column_entries(k).items()
                                       for t, a in [divmod(r, d)]))
    S = vstack(*[L.action[eta.inverse()(G.identity)] for eta in A.N.elements])
    stacked = mul_kron(mul_kron(L.mult, X, Matrix.identity(d)), Matrix.identity(m), S)
    entries = [[] for _ in range(m)]
    for p in range(d):
        for kc, x in stacked.row_entries(p):
            k, c = divmod(kc, d)
            entries[k].append((p, c, x))
    return [Matrix.from_entries(d, d, e) for e in entries]


def measuring_report(H):
    """Exact check that H measures L: h.(xy) = sum (h1.x)(h2.y), h.1 = eps(h)1.

    With M_k the action of h_k on L, the laws are M_k u_L = eps(h_k) u_L and
    M_k m_L = m_L (sum of c M_i (x) M_j over the terms c h_i (x) h_j of
    Delta(h_k)), stacked side by side over k, with each m_L (M_i (x) M_j) one
    mul_kron.  The action matrices are built once per provenance.
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
    rhs = [sum((mul_kron(L.mult, mats[i], mats[j]) * c for (i, j), c in H.comul_terms(k).items()),
               zero) for k in range(H.dim)]
    col = first_difference((hstack(*[m * L.mult for m in mats]), hstack(*rhs)))
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

    Endomorphisms are flattened row-major; column (a, k) is a*|H| + k.  Entry
    (p, (a*|H| + k)*d + q) of L.mult (1 (x) (M_0 ... M_|H|-1)) is entry (p, q)
    of e_a M_k, so j is that one product re-indexed.
    """
    d, n = L.dim, len(action_matrices)
    prod = mul_kron(L.mult, Matrix.identity(d), hstack(*action_matrices))
    return Matrix.from_entries(d * d, d * n, (
        (p * d + q, ak, c) for p in range(d) for akq, c in prod.row_entries(p)
        for ak, q in [divmod(akq, d)]))


@dataclass
class HopfGaloisCheck:
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
    the Phi': L^K (x) H -> L^K[N] that descend built and kept: Phi' is square
    with full rank.  L (x)_{L^K} - is faithfully flat and carries Phi' to Phi,
    so Phi is bijective exactly when Phi' is."""
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
    return A.slots(A.L.unit)


def inverse_pair_columns(A, sums, differences):
    """The columns eta_t + eta_t^-1 at the slots `sums`, then w*(eta_t - eta_t^-1)
    at `differences`, with w the rational-square witness of L.

    One product hstack(U, W) * S: S holds 1 at t and at iota(t) in a sum's
    column, and 1 at t and -1 at iota(t) in a difference's, so a repeated
    slot gives 2 (the identity) or 0 (a difference at an involution).
    """
    inv, n, k = A.N.group.inverses, A.N.order, len(sums)
    picks = Matrix.from_entries(2 * n, k + len(differences), [
        *((x, c, ONE) for c, t in enumerate(sums) for x in (t, inv[t])),
        *((n + x, k + c, sign) for c, t in enumerate(differences)
          for x, sign in ((t, ONE), (inv[t], -ONE)))])
    return hstack(A.slots(A.L.unit), A.slots(quadratic_sqrt_witness(A.L))) * picks


def explicit_translation_basis(A):
    """Closed-form basis of the fixed ring of L[lam(G)] for dihedral G.

    With w the rational-square witness (r(w) = w, s(w) = -w) and y running
    over a basis Y of the s-fixed subalgebra:

      1,
      lam(r^i) + lam(r^(p-i))        and   w*(lam(r^i) - lam(r^(p-i))),
      sum_i r^((p+1)/2 * i)(y) * lam(r^i s).

    The first two lines are columns of U + iota U and W - iota W (1 as
    2 * lam(1)).  The reflection coefficients solve the fixedness recursion
    b_{i+2} = r(b_i) on the coefficients of lam(r^i s): the last line is
    (sum over i of e_(r^i s) (x) r^((p+1)/2 * i)) * Y.
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
    # block t of the stack is r^((p+1)/2 * i) at the slot t of r^i s, zero elsewhere
    blocks = [Matrix.zeros(L.dim, L.dim)] * A.N.order
    for i in range(p):
        blocks[slot[G.mul(rpow[i], s_idx)]] = L.action[rpow[step * i % p]]
    reflections = vstack(*blocks)
    return hstack(inverse_pair_columns(A, [slot[G.identity]] + rotations, rotations),
                  reflections * L.fixed_space([s_idx]))


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
    """Span equality of the descended basis with a closed-form basis."""
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
    return prov.basis == kernel_form(ref)
