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

from functools import cached_property
from math import isqrt

from .algebra import Algebra, action_report, algebra_axiom_report, monomials
from .groups import cyclic, dihedral
from .linalg import Matrix, Q, ZERO, ONE, fixed_basis, kernel_form, mul_kron, rational


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

    `action` is a dict {generator: matrix} at `group.generators`, kept as
    `generator_action`.  `action[g]`, the matrix of the automorphism attached
    to group element index g, is their product along group.extend, formed
    when `action` is first read; g -> action[g] is a homomorphism.
    `idempotent` is an idempotent e whose distinct G-translates are
    orthogonal and sum to 1, so that L is the product of the eL over the
    cosets of D, the stabilizer of e; it defaults to the unit (D = G).
    descend reads each structure in (eL)[N] under D.
    """

    def __init__(self, mult, unit, group, action, names=None, idempotent=None):
        super().__init__(mult, unit, names=names)
        self.group = group
        if not isinstance(action, dict) or set(action) != set(group.generators):
            raise ValueError("need one action matrix per generator")
        for m in action.values():
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrix shape mismatch")
        self.generator_action = {g: action[g] for g in group.generators}
        self.idempotent = self.unit if idempotent is None else tuple(Q(c) for c in idempotent)
        self._check_length(self.idempotent)

    @cached_property
    def action(self):
        """Every element's matrix, from `generator_action` by group.extend."""
        return tuple(self.group.extend(self.generator_action, Matrix.identity(self.dim)))

    @cached_property
    def sqrt_witness(self):
        """quadratic_sqrt_witness(self) as a tuple, computed once."""
        return tuple(quadratic_sqrt_witness(self))

    def translates(self, indices):
        """The distinct g(e) of the idempotent e for g in indices, in order,
        each with the list of those g: over all of G, the cosets gD."""
        out = {}
        for g in indices:
            out.setdefault(tuple(self.action[g].apply(self.idempotent)), []).append(g)
        return out

    def fixed_space(self, indices):
        """Normalized basis of the space fixed by action(g) for g in indices."""
        return fixed_basis([self.action[g] for g in indices], self.dim)

    def verify(self):
        """Full invariant check as a CheckReport; used by tests, not by hot paths."""
        report = algebra_axiom_report(self)
        report.add("commutative", self.is_commutative())
        report.extend(action_report(self.group, self.action.__getitem__, self.mult))
        report.add("fixed-field-is-Q", self.fixed_space(range(self.group.order)).cols == 1)
        # the idempotent: e^2 = e != 0, and its distinct translates, one per
        # coset of its stabilizer D, are orthogonal, sum to 1 and cut L into
        # [G : D] copies of eL
        e = list(self.idempotent)
        report.add("idempotent", any(e) and self.mul(e, e) == e)
        translates = list(self.translates(range(self.group.order)))
        zero = [ZERO] * self.dim
        report.add("idempotent-translates-orthogonal", all(
            self.mul(x, y) == zero for i, x in enumerate(translates) for y in translates[:i]))
        report.add("idempotent-translates-sum-to-unit",
                   [sum(c, ZERO) for c in zip(*translates)] == list(self.unit))
        residue, index = self.mult_operator(e).rank(), len(translates)
        report.add("idempotent-residue-dimension", residue * index == self.dim,
                   None if residue * index == self.dim else
                   f"dim(eL) = {residue}, [G : D] = {index}, dim L = {self.dim}")
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
    # basis index i + 3j is a^i z^j; a^3 = v and z^2 = -1 - z
    basis = [(i, j) for j in range(2) for i in range(3)]
    A = Matrix.from_entries(6, 6, [((i + 1) % 3 + 3 * j, i + 3 * j, v if i == 2 else ONE)
                                   for j in range(2) for i in range(3)])
    Z = Matrix.from_entries(6, 6, [(i + 3, i, ONE) for i in range(3)]
                            + [(k, i + 3, -ONE) for i in range(3) for k in (i, i + 3)])
    mult = monomials(A, Z, basis, Matrix.identity(6))
    # r: a -> az, z -> z and s: a -> a, z -> z^2
    G, e0 = dihedral(3), Matrix.from_entries(6, 1, [(0, 0, ONE)])
    r, s = G.generators
    action = {r: monomials(A * Z, Z, basis, e0), s: monomials(A, Z * Z, basis, e0)}
    unit = [ONE] + [ZERO] * 5
    names = ("1", "a", "a^2", "z", "az", "a^2z")
    return GaloisAlgebra(mult, unit, G, action, names=names)


def quadratic_field(b):
    """Q(sqrt(b)) for a non-square rational b, with its order-2 group."""
    b = rational(b)
    if b == 0 or is_rational_square(b):
        raise ValueError(f"{b} is a rational square; need a quadratic extension")
    G = cyclic(2)
    # columns 1*1, 1*w, w*1, w*w
    mult = Matrix.from_rows([[ONE, ZERO, ZERO, b], [ZERO, ONE, ONE, ZERO]])
    unit = (ONE, ZERO)
    action = {G.generators[0]: Matrix.from_rows([[ONE, ZERO], [ZERO, -ONE]])}
    return GaloisAlgebra(mult, unit, G, action, names=("1", "w"))


def split_model(G):
    """The split Galois algebra Maps(G, Q) with the left translation action.

    The basis is the coordinate idempotents d_h; g sends d_h to d_{gh}.  Its
    idempotent is d[identity], whose stabilizer is trivial.
    """
    n = G.order
    # d_i d_j = d_i if i == j else 0
    mult = Matrix.from_entries(n, n * n, ((i, i * n + i, ONE) for i in range(n)))
    unit = [ONE] * n
    action = {g: Matrix.permutation(G.table[g]) for g in G.generators}
    names = tuple(f"d[{name}]" for name in G.names)
    return GaloisAlgebra(mult, unit, G, action, names=names,
                         idempotent=Matrix.identity(n).column(G.identity))


def quadratic_sqrt_witness(L):
    """Element of the rotation-fixed quadratic subalgebra negated by s.

    For L with dihedral group (generators r of odd order p and s of order
    2), returns the w with r(w) = w, s(w) = -w and w^2 rational, as the
    one column of the kernel_form of that line (a primitive integer
    vector).  Raises ValueError if no such element exists.
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
    w = list(kernel_form(quad * anti).column(0))
    rational_square_of(L, w)  # raises unless w^2 is rational
    return w


def rational_square_of(L, w):
    """The rational d with w*w = d * unit; raises if w^2 is not rational."""
    w = Matrix.from_columns([w])
    d = Matrix.from_columns([L.unit]).solve(mul_kron(L.mult, w, w))
    if d is None:
        raise ValueError("square is not a rational multiple of the unit")
    return d[0, 0]
