"""Structure-constant algebras and Hopf presentations over the rationals.

An Algebra is a finite-dimensional unital Q-algebra given by its full
multiplication table: prod[i][j] is the coordinate vector of basis_i*basis_j.
A HopfPresentation adds comultiplication, counit and antipode as exact
matrices; the tensor square H (x) H indexes basis pairs (i, j) as i*dim + j.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import Matrix, Q, ZERO, vec_is_zero


class Algebra:
    """Finite-dimensional unital algebra with explicit structure constants."""

    def __init__(self, prod, unit, names=None):
        self.dim = len(prod)
        self.prod = tuple(tuple(tuple(c if type(c) is Q else Q(c) for c in vec) for vec in row)
                          for row in prod)
        if any(len(row) != self.dim for row in self.prod):
            raise ValueError("product table must be square")
        if any(len(vec) != self.dim for row in self.prod for vec in row):
            raise ValueError("structure constant vectors must have length dim")
        self.unit = tuple(Q(c) for c in unit)
        if len(self.unit) != self.dim:
            raise ValueError("unit vector length mismatch")
        self.names = tuple(names) if names is not None else tuple(f"e{i}" for i in range(self.dim))
        # the nonzero structure constants (k, c) of each basis product
        self._terms = tuple(tuple(tuple((k, c) for k, c in enumerate(vec) if c) for vec in row)
                            for row in self.prod)

    def basis_vector(self, i):
        v = [ZERO] * self.dim
        v[i] = Q(1)
        return v

    def mul(self, x, y):
        out = [ZERO] * self.dim
        ys = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if not a:
                continue
            trow = self._terms[i]
            for j, b in ys:
                terms = trow[j]
                if terms:
                    ab = a * b
                    for k, c in terms:
                        out[k] += ab * c
        return out

    def mult_operator(self, x):
        """Matrix of left multiplication by x."""
        cols = [self.mul(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix.from_columns(cols, rows=self.dim)

    def right_mult_operator(self, x):
        cols = [self.mul(self.basis_vector(j), x) for j in range(self.dim)]
        return Matrix.from_columns(cols, rows=self.dim)

    def power(self, x, k):
        out = list(self.unit)
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def is_commutative(self):
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.prod[i][j] != self.prod[j][i]:
                    return False
        return True

    def rational_multiple_of_unit(self, vec):
        """The rational c with vec = c * unit, or None if there is none."""
        if vec_is_zero(vec):
            return ZERO
        for k, u in enumerate(self.unit):
            if u:
                c = vec[k] / u
                return c if [c * v for v in self.unit] == list(vec) else None
        return None

    def tensor_mul(self, u, v):
        """Product of two sparse tensors {(i, j): coefficient} in A (x) A."""
        out = {}
        for (a, b), c1 in u.items():
            for (cc, d), c2 in v.items():
                coeff = c1 * c2
                right = self._terms[b][d]
                for i, li in self._terms[a][cc]:
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

    def __init__(self, prod, unit, comul, counit, antipode,
                 names=None, provenance=None, group=None):
        super().__init__(prod, unit, names=names)
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

    def comul_of(self, x):
        """Comultiplication of a coordinate vector, as a sparse tensor dict."""
        out = {}
        for k, a in enumerate(x):
            if not a:
                continue
            for key, c in self.comul_terms(k).items():
                out[key] = out.get(key, ZERO) + a * c
        return {k: v for k, v in out.items() if v}

    def counit_of(self, x):
        s = ZERO
        for k, a in enumerate(x):
            if a:
                s += a * self.counit[0, k]
        return s

    def antipode_of(self, x):
        return self.antipode.apply(x)

    def is_cocommutative(self):
        return all(terms == {(j, i): c for (i, j), c in terms.items()}
                   for terms in map(self.comul_terms, range(self.dim)))


def group_hopf_algebra(G, names=None):
    """The group algebra Q[G] with its standard Hopf structure."""
    n = G.order
    # left multiplication by g_i permutes the basis by row i of the table
    prod = [Matrix.permutation(G.table[i]).columns() for i in range(n)]
    unit = [ZERO] * n
    unit[G.identity] = Q(1)
    comul = Matrix.from_entries(n * n, n, ((k * n + k, k, Q(1)) for k in range(n)))
    counit = Matrix(1, n, [Q(1)] * n)
    antipode = Matrix.permutation([G.inv(k) for k in range(n)])
    return HopfPresentation(prod, unit, comul, counit, antipode,
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


def algebra_axiom_report(A):
    """Exact check of the unit and associativity laws of an Algebra."""
    n = A.dim
    report = CheckReport()

    ok, detail = True, None
    for i in range(n):
        e = A.basis_vector(i)
        if A.mul(A.unit, e) != e or A.mul(e, A.unit) != e:
            ok, detail = False, f"unit fails on basis {i}"
            break
    report.add("unit", ok, detail)

    ok, detail = True, None
    for i in range(n):
        if not ok:
            break
        for j in range(n):
            if not ok:
                break
            ij = A.prod[i][j]
            for k in range(n):
                if A.mul(ij, A.basis_vector(k)) != A.mul(A.basis_vector(i), A.prod[j][k]):
                    ok, detail = False, f"associativity fails at ({i},{j},{k})"
                    break
    report.add("associativity", ok, detail)
    return report


def action_report(G, matrix, mul, dim):
    """Exact check that g -> matrix(g) is an action of G by algebra maps.

    `matrix(g)` acts on an algebra of dimension `dim` with multiplication
    `mul`; each failed check names its first counterexample.
    """
    report = CheckReport()
    report.add("identity-acts-trivially", matrix(G.identity) == Matrix.identity(dim))
    bad = next(((g, h) for g in range(G.order) for h in range(G.order)
                if matrix(g) * matrix(h) != matrix(G.mul(g, h))), None)
    report.add("action-homomorphism", bad is None,
               bad and f"fails at ({G.names[bad[0]]}, {G.names[bad[1]]})")
    basis = Matrix.identity(dim).columns()
    prods = [[mul(x, y) for y in basis] for x in basis]
    bad = None
    for g in range(G.order):
        m = matrix(g)
        images = m.columns()
        bad = next(((g, i, j) for i in range(dim) for j in range(dim)
                    if m.apply(prods[i][j]) != mul(images[i], images[j])), None)
        if bad:
            break
    report.add("action-by-algebra-maps", bad is None,
               bad and f"fails for {G.names[bad[0]]} at basis ({bad[1]},{bad[2]})")
    return report


def hopf_axiom_report(H):
    """Exact verification of all Hopf algebra axioms for a presentation.

    Every identity is checked coefficient by coefficient over Q; the report
    lists each axiom with the first counterexample on failure.
    """
    n = H.dim
    report = algebra_axiom_report(H)

    ok, detail = True, None
    if H.counit_of(H.unit) != 1:
        ok, detail = False, "counit(unit) != 1"
    else:
        for i in range(n):
            if not ok:
                break
            ei = H.counit[0, i]
            for j in range(n):
                if H.counit_of(H.prod[i][j]) != ei * H.counit[0, j]:
                    ok, detail = False, f"counit not multiplicative at ({i},{j})"
                    break
    report.add("counit-algebra-map", ok, detail)

    ok, detail = True, None
    unit_tensor = {}
    for i, a in enumerate(H.unit):
        if a:
            for j, b in enumerate(H.unit):
                if b:
                    unit_tensor[(i, j)] = a * b
    if H.comul_of(H.unit) != unit_tensor:
        ok, detail = False, "comul(unit) != unit (x) unit"
    else:
        for i in range(n):
            if not ok:
                break
            di = H.comul_terms(i)
            for j in range(n):
                if H.tensor_mul(di, H.comul_terms(j)) != H.comul_of(H.prod[i][j]):
                    ok, detail = False, f"comul not multiplicative at ({i},{j})"
                    break
    report.add("comul-algebra-map", ok, detail)

    ok, detail = True, None
    for k in range(n):
        terms = H.comul_terms(k)
        left = {}
        right = {}
        for (i, j), c in terms.items():
            for (a, b), c2 in H.comul_terms(i).items():
                key = (a, b, j)
                left[key] = left.get(key, ZERO) + c * c2
            for (a, b), c2 in H.comul_terms(j).items():
                key = (i, a, b)
                right[key] = right.get(key, ZERO) + c * c2
        left = {k2: v for k2, v in left.items() if v}
        right = {k2: v for k2, v in right.items() if v}
        if left != right:
            ok, detail = False, f"coassociativity fails on basis {k}"
            break
    report.add("coassociativity", ok, detail)

    ok, detail = True, None
    for k in range(n):
        terms = H.comul_terms(k)
        lhs = [ZERO] * n
        rhs = [ZERO] * n
        for (i, j), c in terms.items():
            lhs[j] += c * H.counit[0, i]
            rhs[i] += c * H.counit[0, j]
        target = H.basis_vector(k)
        if lhs != target or rhs != target:
            ok, detail = False, f"counit law fails on basis {k}"
            break
    report.add("counit-law", ok, detail)

    ok, detail = True, None
    for k in range(n):
        terms = H.comul_terms(k)
        left = [ZERO] * n
        right = [ZERO] * n
        for (i, j), c in terms.items():
            si = H.antipode_of(H.basis_vector(i))
            for idx, v in enumerate(H.mul(si, H.basis_vector(j))):
                if v:
                    left[idx] += c * v
            sj = H.antipode_of(H.basis_vector(j))
            for idx, v in enumerate(H.mul(H.basis_vector(i), sj)):
                if v:
                    right[idx] += c * v
        target = [H.counit[0, k] * u for u in H.unit]
        if left != target or right != target:
            ok, detail = False, f"antipode law fails on basis {k}"
            break
    report.add("antipode-law", ok, detail)

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
    if T.apply(src.unit) != list(dst.unit):
        return "unit"
    timgs = [T.column(j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if T.apply(src.prod[i][j]) != dst.mul(timgs[i], timgs[j]):
                return "multiplication"
    tt = T.kron(T)
    if tt * src.comul != dst.comul * T:
        return "comultiplication"
    if dst.counit * T != src.counit:
        return "counit"
    if dst.antipode * T != T * src.antipode:
        return "antipode"
    return None
