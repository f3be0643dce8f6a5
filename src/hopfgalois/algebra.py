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
basis indices (the tall coassociativity and counit laws compare transposes,
so that column is their first differing row).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .linalg import Matrix, ONE, Q, ZERO, mul_kron


class Algebra:
    """Finite-dimensional unital algebra with explicit structure constants."""

    def __init__(self, mult, unit, names=None):
        self.dim = mult.rows
        if mult.cols != self.dim * self.dim:
            raise ValueError("multiplication matrix must be dim x dim^2")
        self.mult = mult
        self.unit = tuple(Q(c) for c in unit)
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

    def basis_vector(self, i):
        return list(Matrix.identity(self.dim).column(i))

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
        """Matrix of left multiplication by x: m(x (x) 1)."""
        self._check_length(x)
        return mul_kron(self.mult, Matrix.from_columns([x]), Matrix.identity(self.dim))

    def right_mult_operator(self, x):
        """Matrix of right multiplication by x: m(1 (x) x)."""
        return mul_kron(self.mult, Matrix.identity(self.dim), Matrix.from_columns([x]))

    def power(self, x, k):
        self._check_length(x)
        if k < 0:
            raise ValueError("power needs k >= 0")
        out = list(self.unit)
        for _ in range(k):
            out = self.mul(out, x)
        return out

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
                 names=None, provenance=None, group=None):
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
        self.group = group

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


def _swap(n):
    """The flip tau: e_i (x) e_j -> e_j (x) e_i of Q^n (x) Q^n."""
    return Matrix.permutation([j * n + i for i in range(n) for j in range(n)])


def group_hopf_algebra(G, names=None):
    """The group algebra Q[G] with its standard Hopf structure."""
    n = G.order
    mult = Matrix.from_entries(n, n * n, ((G.table[i][j], i * n + j, ONE)
                                          for i in range(n) for j in range(n)))
    unit = Matrix.identity(n).column(G.identity)
    comul = Matrix.from_entries(n * n, n, ((k * n + k, k, Q(1)) for k in range(n)))
    counit = Matrix(1, n, [Q(1)] * n)
    antipode = Matrix.permutation([G.inv(k) for k in range(n)])
    return HopfPresentation(mult, unit, comul, counit, antipode,
                            names=names if names is not None else G.names,
                            group=G)


class Check(NamedTuple):
    """One named exact claim: its verdict and the first counterexample."""

    name: str
    passed: bool
    detail: str = ""


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
    """Exact check of the unit and associativity laws of an Algebra."""
    n = A.dim
    m, one, u = A.mult, Matrix.identity(n), Matrix.from_columns([A.unit])
    report = CheckReport()

    col = first_difference((mul_kron(m, u, one), one), (mul_kron(m, one, u), one))
    report.add("unit", col is None, None if col is None else f"unit fails on basis {col}")

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
    counterexample on failure.
    """
    n = H.dim
    m, d, e, s = H.mult, H.comul, H.counit, H.antipode
    one, u = Matrix.identity(n), Matrix.from_columns([H.unit])
    report = algebra_axiom_report(H)

    if e * u != Matrix.identity(1):
        report.add("counit-algebra-map", False, "counit(unit) != 1")
    else:
        col = first_difference((e * m, e.kron(e)))
        report.add("counit-algebra-map", col is None, None if col is None else
                   "counit not multiplicative at ({},{})".format(*divmod(col, n)))

    if d * u != u.kron(u):
        report.add("comul-algebra-map", False, "comul(unit) != unit (x) unit")
    else:
        # column (i, j) is Delta(h_i) Delta(h_j), the product in H (x) H
        terms = [H.comul_terms(k) for k in range(n)]
        dd = Matrix.from_entries(n * n, n * n, (
            (a * n + b, i * n + j, c) for i in range(n) for j in range(n)
            for (a, b), c in H.tensor_mul(terms[i], terms[j]).items()))
        col = first_difference((d * m, dd))
        report.add("comul-algebra-map", col is None, None if col is None else
                   "comul not multiplicative at ({},{})".format(*divmod(col, n)))

    # checked on transposes, with n rows: the first differing row of the
    # transposes is the first differing column of the n^3- and n^2-row originals
    dt, et = d.transpose(), e.transpose()
    row = first_row_difference((mul_kron(dt, dt, one), mul_kron(dt, one, dt)))
    report.add("coassociativity", row is None,
               None if row is None else f"coassociativity fails on basis {row}")

    row = first_row_difference((mul_kron(dt, et, one), one), (mul_kron(dt, one, et), one))
    report.add("counit-law", row is None,
               None if row is None else f"counit law fails on basis {row}")

    ue = u * e
    col = first_difference((mul_kron(m, s, one) * d, ue), (mul_kron(m, one, s) * d, ue))
    report.add("antipode-law", col is None,
               None if col is None else f"antipode law fails on basis {col}")
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
    if T.kron(T) * src.comul != dst.comul * T:
        return "comultiplication"
    if dst.counit * T != src.counit:
        return "counit"
    if dst.antipode * T != T * src.antipode:
        return "antipode"
    return None
