"""Structure-constant algebras and Hopf presentations over the rationals.

An Algebra is a finite-dimensional unital Q-algebra given by the n x n^2
matrix `mult` of its multiplication m: A (x) A -> A; column i*n + j holds
the coordinates of basis_i*basis_j.  A HopfPresentation adds
comultiplication, counit and antipode as exact matrices; tensor powers index
basis tuples (i, j, ...) in base dim, as Matrix.kron does, so H (x) H puts
(i, j) at i*dim + j.

Every axiom is checked as an equality of composite linear maps built from
these matrices, for example m(m (x) 1) = m(1 (x) m) by linalg.mul_kron; a
failed check names the first column where the two sides differ, decoded into
basis indices (comultiplicativity and the tall coassociativity and counit
laws compare transposes, so that column is their first differing row).

The product identities, associativity and the counit and comultiplication
as algebra maps, are first checked on a generating set only.  The lemma:
let S be the set of a with (ab)c = a(bc), or eps(ab) = eps(a)eps(b), or
Delta(ab) = Delta(a)Delta(b), for all b and c.  S is a subspace, and it is
closed under products: for associativity ((aa')b)c = (a(a'b))c =
a((a'b)c) = a(a'(bc)) = (aa')(bc), and the same four steps prove the
other two once A is associative.  The unit laws (with eps(1) = 1 and
Delta(1) = 1 (x) 1 for the maps) put 1 in S.  So when the words
g_1(g_2(...(g_k 1))) in some elements g span A, checking each g proves
the identity on all of A.  `Algebra.generators` finds basis vectors g and
such words, multiplied literally out of the columns of `mult`; per
generator, a reduced identity compares n^2 of associativity's n^3
columns, or n of the n^2 columns or rows of a map law.  When a
precondition fails (the unit laws, or associativity for the two maps),
or a reduced identity fails, the full identity runs, so every report
names the same first counterexample as the full identity alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .linalg import Matrix, ONE, Span, ZERO, _checked, hstack, mul_kron, rational, vstack


class Algebra:
    """Finite-dimensional unital algebra with explicit structure constants."""

    def __init__(self, mult, unit, names=None):
        self.dim = mult.rows
        if mult.cols != self.dim * self.dim:
            raise ValueError("multiplication matrix must be dim x dim^2")
        self.mult = mult
        self.unit = tuple(map(rational, unit))
        if len(self.unit) != self.dim:
            raise ValueError("unit vector length mismatch")
        self.names = tuple(names) if names is not None else tuple(f"e{i}" for i in range(self.dim))
        if len(self.names) != self.dim:
            raise ValueError("names length mismatch")

    @cached_property
    def _products(self):
        # entry i*n + j: the nonzero structure constants (k, c) of basis_i*basis_j
        t = self.mult.transpose()
        return tuple(tuple(t.row_entries(col)) for col in range(t.rows))

    @cached_property
    def generators(self):
        """Basis vectors that generate the algebra, and the words that prove it.

        Basis vector g is kept when it grows the span of the words
        g_1(g_2(...(g_k 1))), k >= 1, in the vectors kept so far.  Each word
        is L_g = `mult_operator(basis_g)` applied to 1 or to a shorter word,
        so no associativity is assumed.  The words are read breadth first:
        g meets 1 and every word so far, then every kept vector meets each
        word that grew the span, which linalg.Span decides.  None when the
        words do not span the algebra, which happens only when a unit law
        fails.
        """
        n, span = self.dim, Span()
        indices, operators, words, cols = [], [], [], []
        for g in range(n):
            if len(span) == n:
                break
            op, before = self.mult_operator(self.basis_vector(g)), len(words)
            queue = [((g, *w), op.apply(v)) for w, v in zip([(), *words], [self.unit, *cols])]
            for w, v in queue:  # the queue grows while it is read
                if len(span) == n:
                    break
                if span.add(v):
                    words.append(w)
                    cols.append(v)
                    queue += [((h, *w), L.apply(v))
                              for h, L in zip((*indices, g), (*operators, op))]
            if len(words) > before:
                indices.append(g)
                operators.append(op)
        if len(span) < n:
            return None
        return Generators(tuple(indices), tuple(operators), tuple(words))

    def basis_vector(self, i):
        v = [ZERO] * self.dim
        v[_checked(i, self.dim, "basis")] = ONE
        return v

    def _check_length(self, *vectors):
        if any(len(v) != self.dim for v in vectors):
            raise ValueError("vector length mismatch")

    def mul(self, x, y):
        self._check_length(x, y)
        n, terms = self.dim, self._products
        out = [ZERO] * n
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if not a:
                continue
            row = i * n
            for j, b in ys:
                ij = terms[row + j]
                if ij:
                    ab = a * b
                    for k, c in ij:
                        out[k] += ab * c
        return out

    def mult_operator(self, x):
        """Matrix of left multiplication by x: m(x (x) 1), whose column j is
        the sum of x_i basis_i*basis_j over the nonzero x_i, read off the
        cached columns of `mult` only for those i."""
        self._check_length(x)
        n, terms = self.dim, self._products
        return Matrix.from_entries(n, n, (
            (k, j, c if a == 1 else a * c)
            for i, a in enumerate(x) if a for j in range(n) for k, c in terms[i * n + j]))

    def is_commutative(self):
        """m tau = m, with tau the swap of the tensor factors."""
        return self.mult * _swap(self.dim) == self.mult

    def tensor_mul(self, u, v):
        """Product of two sparse tensors {(i, j): coefficient} in A (x) A."""
        n, terms = self.dim, self._products
        out = {}
        for (a, b), c1 in u.items():
            for (cc, d), c2 in v.items():
                coeff = c1 * c2
                right = terms[b * n + d]
                for i, li in terms[a * n + cc]:
                    cli = coeff * li
                    for j, rj in right:
                        key = (i, j)
                        out[key] = out.get(key, ZERO) + cli * rj
        return {k: v for k, v in out.items() if v}


class HopfPresentation(Algebra):
    """Algebra plus comultiplication, counit and antipode matrices.

    comul is dim^2 x dim (column k lists the tensor coordinates of the
    comultiplied k-th basis element), counit is 1 x dim, antipode dim x dim.
    """

    def __init__(self, mult, unit, comul, counit, antipode,
                 names=None, provenance=None):
        super().__init__(mult, unit, names=names)
        if comul.rows != self.dim * self.dim or comul.cols != self.dim:
            raise ValueError("comul must be dim^2 x dim")
        if counit.rows != 1 or counit.cols != self.dim:
            raise ValueError("counit must be 1 x dim")
        if antipode.rows != self.dim or antipode.cols != self.dim:
            raise ValueError("antipode must be dim x dim")
        self.comul = comul
        self.counit = counit
        self.antipode = antipode
        self.provenance = provenance
        self._axiom_report = None  # the checks of hopf_axiom_report(self), once computed

    def comul_terms(self, k):
        """Sparse form of comul column k: dict (i, j) -> coefficient."""
        n = self.dim
        return {divmod(idx, n): c for idx, c in self.comul.column_entries(k).items()}

    def counit_of(self, x):
        return self.counit.apply(x)[0]

    def antipode_of(self, x):
        return self.antipode.apply(x)

    def is_cocommutative(self):
        """tau Delta = Delta, with tau the swap of the tensor factors."""
        return _swap(self.dim) * self.comul == self.comul


def monomials(x, y, exponents, m):
    """The products x^i y^j m for (i, j) in `exponents`, side by side.

    With the multiplication operators of two commuting generators and m = I,
    this is the multiplication matrix on the monomial basis `exponents`; with
    the operators of two images and m the unit column, it is the algebra map
    that sends the generators to those images.
    """
    ys = [m]  # ys[j] = y^j m
    out = []
    for i, j in exponents:
        while len(ys) <= j:
            ys.append(y * ys[-1])
        col = ys[j]
        for _ in range(i):
            col = x * col
        out.append(col)
    return hstack(*out)


def _swap(n):
    """The flip tau: e_i (x) e_j -> e_j (x) e_i of Q^n (x) Q^n."""
    return Matrix.permutation([j * n + i for i in range(n) for j in range(n)])


def group_hopf_algebra(G, names=None):
    """The group algebra Q[G] with its standard Hopf structure."""
    n = G.order
    mult = Matrix.from_entries(n, n * n, ((G.table[i][j], i * n + j, ONE)
                                          for i in range(n) for j in range(n)))
    unit = Matrix.identity(n).column(G.identity)
    comul = Matrix.from_entries(n * n, n, ((k * n + k, k, ONE) for k in range(n)))
    counit = Matrix(1, n, [ONE] * n)
    antipode = Matrix.permutation([G.inv(k) for k in range(n)])
    return HopfPresentation(mult, unit, comul, counit, antipode,
                            names=names if names is not None else G.names)


class Generators(NamedTuple):
    """Basis vectors that generate an algebra, with their certificate."""

    indices: tuple  # the basis indices g
    operators: tuple  # L_g, left multiplication by basis_g, for each g
    words: tuple  # n words that span it, each spelled (g_1, ..., g_k) for g_1(g_2(...(g_k 1)))


class Check(NamedTuple):
    """One named exact claim: its verdict and the first counterexample."""

    name: str
    passed: bool
    detail: str = ""


class CheckFailed(RuntimeError):
    """An exact identity that must hold failed; the message names it."""


class CheckReport(list):
    """Ordered list of Checks; passes when every check passes."""

    def add(self, name, ok, detail=None):
        self.append(Check(name, bool(ok), "" if detail is None else str(detail)))

    @property
    def passed(self):
        return all(c.passed for c in self)

    def failures(self):
        return [(c.name, c.detail) for c in self if not c.passed]


def first_difference(*pairs):
    """The smallest column at which some (lhs, rhs) pair of equally shaped
    matrices differs, or None when every pair is equal."""
    return min((j for j in (lhs.first_difference(rhs) for lhs, rhs in pairs) if j is not None),
               default=None)


def first_row_difference(*pairs):
    """The smallest row at which some (lhs, rhs) pair of equally shaped
    matrices differs, or None: first_difference of the transposed pairs."""
    if any((lhs.rows, lhs.cols) != (rhs.rows, rhs.cols) for lhs, rhs in pairs):
        raise ValueError("shape mismatch")
    return min((i for lhs, rhs in pairs for i in range(lhs.rows)
                if lhs.row_entries(i) != rhs.row_entries(i)), default=None)


def algebra_axiom_report(A):
    """Exact check of the unit and associativity laws of an Algebra.

    Once the unit laws hold, associativity is L_g m = m (L_g (x) I) for each
    generator g of `A.generators` (the lemma of the module docstring), n^2
    columns per generator.  When that fails, or a unit law fails, the full
    n^3-column identity m(m (x) 1) = m(1 (x) m) runs and names the first
    failing triple.
    """
    n = A.dim
    m, one, u = A.mult, Matrix.identity(n), Matrix.from_columns([A.unit])
    report = CheckReport()

    col = first_difference((mul_kron(m, u, one), one), (mul_kron(m, one, u), one))
    report.add("unit", col is None, None if col is None else f"unit fails on basis {col}")

    gens = A.generators if col is None else None
    if gens is None or any(op * m != mul_kron(m, op, one) for op in gens.operators):
        col = first_difference((mul_kron(m, m, one), mul_kron(m, one, m)))
    report.add("associativity", col is None, None if col is None else
               "associativity fails at ({},{},{})".format(col // (n * n), col // n % n, col % n))
    return report


def action_report(G, matrix, mult):
    """Exact check that g -> matrix(g) is an action of G by algebra maps.

    `matrix(g)` acts on the algebra whose n x n^2 multiplication matrix is
    `mult`; g is an algebra map when matrix(g) mult = mult (matrix(g) (x)
    matrix(g)).  Each failed check names its first counterexample.
    """
    dim = mult.rows
    report = CheckReport()
    report.add("identity-acts-trivially", matrix(G.identity) == Matrix.identity(dim))
    bad = next(((g, h) for g in range(G.order) for h in range(G.order)
                if matrix(g) * matrix(h) != matrix(G.mul(g, h))), None)
    report.add("action-homomorphism", bad is None,
               bad and f"fails at ({G.names[bad[0]]}, {G.names[bad[1]]})")
    bad = None
    for g in range(G.order):
        m = matrix(g)
        col = first_difference((m * mult, mul_kron(mult, m, m)))
        if col is not None:
            bad = "fails for {} at basis ({},{})".format(G.names[g], *divmod(col, dim))
            break
    report.add("action-by-algebra-maps", bad is None, bad)
    return report


def hopf_axiom_report(H):
    """Exact verification of all Hopf algebra axioms for a presentation.

    Each axiom is an equality of matrices over Q built from mult, unit,
    comul, counit and antipode; the report lists each axiom with the first
    counterexample on failure.  Associativity is checked as in
    algebra_axiom_report.  Once the unit laws and associativity hold, the
    counit and the comultiplication are algebra maps when they are
    multiplicative on g h_j for each generator g of `H.generators` (the
    lemma of the module docstring): n of the n^2 columns, or rows, per
    generator.  When one of those fails, or a precondition fails, the full
    identity runs and names the first failing pair.

    A presentation's matrices are never replaced, so the checks are computed
    once per presentation and kept: a later call, as measuring_report and
    module_report make, returns a new report of the same checks without a
    product.
    """
    if H._axiom_report is not None:
        return CheckReport(H._axiom_report)
    n = H.dim
    m, d, e, s = H.mult, H.comul, H.counit, H.antipode
    one, u = Matrix.identity(n), Matrix.from_columns([H.unit])
    report = algebra_axiom_report(H)
    gens = H.generators if report.passed else None

    if e * u != Matrix.identity(1):
        report.add("counit-algebra-map", False, "counit(unit) != 1")
    else:
        col = None
        if gens is None or any(e * op != e * e[0, g] for g, op in zip(gens.indices, gens.operators)):
            col = first_difference((e * m, e.kron(e)))
        report.add("counit-algebra-map", col is None, None if col is None else
                   "counit not multiplicative at ({},{})".format(*divmod(col, n)))

    # on transposes: row (i, j) of m^T d^T is Delta(h_i h_j), and of X (m^T (x) m^T)
    # is Delta(h_i) Delta(h_j), where row (i, j) of X is Delta h_i (x) Delta h_j,
    # read off d^T, with its middle legs swapped; the reduced check builds
    # only the rows (g, j) of X, g a generator, whose rows of m^T are the
    # columns of L_g
    dt, et, mt, ut = d.transpose(), e.transpose(), m.transpose(), u.transpose()
    if ut * dt != ut.kron(ut):
        report.add("comul-algebra-map", False, "comul(unit) != unit (x) unit")
    else:
        terms = [[(*divmod(ab, n), x) for ab, x in dt.row_entries(i)] for i in range(n)]

        def x_rows(pairs):
            return Matrix.from_entries(len(pairs), n ** 4, (
                (r, (a * n + c) * n * n + b * n + f, x * y)
                for r, (i, j) in enumerate(pairs) for a, b, x in terms[i] for c, f, y in terms[j]))

        row = None
        if gens is None or (vstack(*(op.transpose() for op in gens.operators)) * dt
                            != mul_kron(x_rows([(g, j) for g in gens.indices for j in range(n)]),
                                        mt, mt)):
            X = x_rows([divmod(ij, n) for ij in range(n * n)])
            row = first_row_difference((mt * dt, mul_kron(X, mt, mt)))
        report.add("comul-algebra-map", row is None, None if row is None else
                   "comul not multiplicative at ({},{})".format(*divmod(row, n)))

    # the first differing row of the transposes is the first differing
    # column of the n^3- and n^2-row originals
    row = first_row_difference((mul_kron(dt, dt, one), mul_kron(dt, one, dt)))
    report.add("coassociativity", row is None,
               None if row is None else f"coassociativity fails on basis {row}")

    row = first_row_difference((mul_kron(dt, et, one), one), (mul_kron(dt, one, et), one))
    report.add("counit-law", row is None,
               None if row is None else f"counit law fails on basis {row}")

    # m (S (x) 1) Delta as m ((S (x) 1) Delta), whose right factor is read off d^T
    ue, st = u * e, s.transpose()
    col = first_difference((m * mul_kron(dt, st, one).transpose(), ue),
                           (m * mul_kron(dt, one, st).transpose(), ue))
    report.add("antipode-law", col is None,
               None if col is None else f"antipode law fails on basis {col}")
    H._axiom_report = tuple(report)
    return report


def hopf_map_violation(T, src, dst):
    """First Hopf-map identity violated by the linear map T: src -> dst.

    Checks, in order: bijectivity, unit, multiplicativity, comultiplication,
    counit, antipode.  Returns the name of the first failed identity, or
    None when T is an isomorphism of Hopf presentations.
    """
    n = src.dim
    if dst.dim != n or T.rows != n or T.cols != n:
        raise ValueError("dimension mismatch")
    if T.rank() != n:
        return "bijectivity"
    if T * Matrix.from_columns([src.unit]) != Matrix.from_columns([dst.unit]):
        return "unit"
    if T * src.mult != mul_kron(dst.mult, T, T):
        return "multiplication"
    Tt = T.transpose()
    if mul_kron(src.comul.transpose(), Tt, Tt) != Tt * dst.comul.transpose():
        return "comultiplication"
    if dst.counit * T != src.counit:
        return "counit"
    if dst.antipode * T != T * src.antipode:
        return "antipode"
    return None
