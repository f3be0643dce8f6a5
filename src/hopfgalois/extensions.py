"""Concrete models of the Galois extension L/Q.

Three models are provided, all as commutative structure-constant algebras
carrying an action of their Galois group by algebra automorphisms:

* splitting_field_cubic(v): the degree-6 splitting field of x^3 - v with
  dihedral group D_3, on the basis (1, a, a^2, z, az, a^2z) where a^3 = v
  and z is a primitive cube root of unity (z^2 = -1 - z);
* quadratic_field(b): Q(sqrt(b)) with its order-2 group;
* split_model(G): the algebra Maps(G, Q) of Q-valued functions on G with G
  permuting the coordinate idempotents by left translation.  This is the
  split Galois algebra that makes every p feasible without number fields.
"""

from __future__ import annotations

from math import isqrt

from .algebra import Algebra, action_report, algebra_axiom_report
from .groups import cyclic, dihedral
from .linalg import Matrix, Q, ZERO, ONE, fixed_basis, integer_normalized, mul_kron, rational


def _int_is_cube(n):
    """Whether the integer n is a cube, by Newton's integer cube root."""
    n = abs(n)
    if n < 2:
        return True
    x = 1 << -(-n.bit_length() // 3)  # 2^ceil(bits/3) >= cbrt(n)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x ** 3 == n
        x = y


def _short_text(q):
    """q as text, or its digit counts when it is too long to print."""
    num, den = abs(int(q.numerator)), int(q.denominator)
    if max(num, den).bit_length() <= 3000:  # at most 904 digits
        return str(q)
    return f"v ({_digit_count(num)}-digit numerator, {_digit_count(den)}-digit denominator)"


def _digit_count(n):
    k = max(1, n.bit_length() * 30103 // 100000)  # floor(bits * log10 2) <= digits
    while 10 ** k <= n:
        k += 1
    return k


def is_rational_cube(q):
    q = Q(q)
    return _int_is_cube(int(q.numerator)) and _int_is_cube(int(q.denominator))


def is_rational_square(q):
    q = Q(q)
    if q < 0:
        return False
    num, den = int(q.numerator), int(q.denominator)
    return isqrt(num) ** 2 == num and isqrt(den) ** 2 == den


class GaloisAlgebra(Algebra):
    """Commutative algebra with a finite group acting by automorphisms.

    `action[g]` is the matrix of the automorphism attached to group element
    index g; the assignment g -> action[g] is a homomorphism.
    """

    def __init__(self, mult, unit, group, action, names=None, model=None):
        super().__init__(mult, unit, names=names)
        self.group = group
        self.action = tuple(action)
        self.model = model
        if len(self.action) != group.order:
            raise ValueError("need one action matrix per group element")
        for m in self.action:
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrix shape mismatch")

    def fixed_space(self, indices):
        """Normalized basis of the space fixed by action(g) for g in indices."""
        return fixed_basis([self.action[g] for g in indices], self.dim)

    def verify(self):
        """Full invariant check as a CheckReport; used by tests, not by hot paths."""
        report = algebra_axiom_report(self)
        report.add("commutative", self.is_commutative())
        report.extend(action_report(self.group, self.action.__getitem__, self.mult))
        report.add("fixed-field-is-Q", self.fixed_space(range(self.group.order)).cols == 1)
        return report


def splitting_field_cubic(v):
    """Splitting field of x^3 - v as a GaloisAlgebra with group D_3.

    v must be a nonzero rational that is not a cube, so that the polynomial
    is irreducible and the extension has degree 6.  Basis order is
    (1, a, a^2, z, az, a^2z) with a the cube root and z^2 = -1 - z.
    The generator r sends a to az and fixes z; s fixes a and sends z to z^2.
    """
    v = rational(v)
    if v == 0 or is_rational_cube(v):
        raise ValueError(f"{_short_text(v)} is a rational cube; x^3 - v does not cut out a field")
    G = dihedral(3)
    dim = 6

    def reduce_monomial(i, j):
        # a^i z^j as a coordinate vector, i < 6, j < 4, expanded depth first
        out = {}
        work = [(i, j, ONE)]
        while work:
            ii, jj, coeff = work.pop()
            if jj >= 2:
                # z^2 = -1 - z
                work += [(ii, jj - 1, -coeff), (ii, jj - 2, -coeff)]
            elif ii >= 3:
                work.append((ii - 3, jj, coeff * v))
            else:
                key = ii + 3 * jj
                out[key] = out.get(key, ZERO) + coeff
        return out

    # basis index i + 3j is a^i z^j, so a product adds exponents
    mult = Matrix.from_entries(dim, dim * dim, (
        (key, a1 * dim + a2, c) for a1 in range(dim) for a2 in range(dim)
        for key, c in reduce_monomial(a1 % 3 + a2 % 3, a1 // 3 + a2 // 3).items()))

    unit = [ONE] + [ZERO] * 5

    # generator matrices, built by pushing each basis monomial through the map
    def matrix_for(image_of_a, image_of_z):
        # column i + 3j is (image_of_a)^i * (image_of_z)^j, the images being
        # monomials a^x z^y
        (ax, ay), (zx, zy) = image_of_a, image_of_z
        return Matrix.from_entries(dim, dim, (
            (key, i + 3 * j, c) for j in range(2) for i in range(3)
            for key, c in reduce_monomial(ax * i + zx * j, ay * i + zy * j).items()))

    mat_r = matrix_for((1, 1), (0, 1))   # r: a -> a z, z -> z
    mat_s = matrix_for((1, 0), (0, 2))   # s: a -> a, z -> z^2
    ident = Matrix.identity(dim)
    action = []
    for g in range(6):
        i, j = g % 3, g // 3
        m = ident
        for _ in range(i):
            m = m * mat_r
        for _ in range(j):
            m = m * mat_s
        action.append(m)

    names = ("1", "a", "a^2", "z", "az", "a^2z")
    return GaloisAlgebra(mult, unit, G, action, names=names, model="cubic")


def quadratic_field(b):
    """Q(sqrt(b)) for a non-square rational b, with its order-2 group."""
    b = rational(b)
    if b == 0 or is_rational_square(b):
        raise ValueError(f"{b} is a rational square; need a quadratic extension")
    G = cyclic(2)
    # columns 1*1, 1*w, w*1, w*w
    mult = Matrix.from_rows([[ONE, ZERO, ZERO, b], [ZERO, ONE, ONE, ZERO]])
    unit = (ONE, ZERO)
    action = (Matrix.identity(2), Matrix.from_rows([[ONE, ZERO], [ZERO, -ONE]]))
    return GaloisAlgebra(mult, unit, G, action, names=("1", "w"), model="quadratic")


def split_model(G):
    """The split Galois algebra Maps(G, Q) with the left translation action.

    The basis is the coordinate idempotents d_h; g sends d_h to d_{gh}.
    """
    n = G.order
    # d_i d_j = d_i if i == j else 0
    mult = Matrix.from_entries(n, n * n, ((i, i * n + i, ONE) for i in range(n)))
    unit = [ONE] * n
    action = [Matrix.permutation(G.table[g]) for g in range(n)]
    names = tuple(f"d[{name}]" for name in G.names)
    return GaloisAlgebra(mult, unit, G, action, names=names, model="split")


def quadratic_sqrt_witness(L):
    """Element of the rotation-fixed quadratic subalgebra negated by s.

    For L with dihedral group (generators r of odd order p and s of order
    2), returns the unique integer-normalized w with r(w) = w, s(w) = -w
    and w^2 rational.  Raises ValueError if no such element exists.
    """
    G = L.group
    if len(G.generators) == 1:
        r_idx, s_idx = G.identity, G.generators[0]
    else:
        r_idx, s_idx = G.generators
    if G.element_order(s_idx) != 2 or G.element_order(r_idx) % 2 == 0:
        raise ValueError("expected dihedral generators (r odd order, s order 2)")
    quad = L.fixed_space([r_idx])
    anti = (L.action[s_idx] * quad + quad).kernel()
    if anti.cols == 0:
        raise ValueError("no element is negated by the reflection")
    w = integer_normalized((quad * anti).column(0))
    rational_square_of(L, w)  # raises unless w^2 is rational
    return w


def rational_square_of(L, w):
    """The rational d with w*w = d * unit; raises if w^2 is not rational."""
    w = Matrix.from_columns([w])
    d = Matrix.from_columns([L.unit]).solve(mul_kron(L.mult, w, w))
    if d is None:
        raise ValueError("square is not a rational multiple of the unit")
    return d[0, 0]
