"""Two-generator polynomial presentation of the commutative structures.

The commutative Hopf algebras descended from the cyclic structures admit a
presentation Q[x, y] / I with

    I = ( y^2 - b x^2 + u,  (x-2)(x-1)(x+1)(x+2),  (x-1)(x+1)xy ),

u = 4b, where b is the rational square of the quadratic witness of L.  On
the basis (1, x, x^2, x^3, y, xy) the operators of multiplication by x and
y reduce by the rules y^2 -> b x^2 - u, x^4 -> 5x^2 - 4 and x^2 y -> y (the
last lies in I: x^2 y - y = -(y/4)(x^4 - 5x^2 + 4) + (x/4)(x^3 y - x y)).  The Hopf maps

    D(x) = (1/2) x (x) x + (1/2b) y (x) y,   D(y) = (1/2)(x (x) y + y (x) x),
    eps(x) = 2, eps(y) = 0, sigma(x) = x, sigma(y) = -y

extend multiplicatively.  The explicit isomorphism to a descended cyclic
structure sends x to gen + gen^-1 and y to w*(gen - gen^-1) with w the
quadratic witness; all Hopf identities of that map are checked exactly.
"""

from __future__ import annotations

from math import isqrt

from .algebra import Algebra, CheckFailed, HopfPresentation, hopf_map_violation, monomials
from .analysis import commutative_wedderburn
from .descent import _provenance_of, inverse_pair_columns
from .extensions import is_rational_square
from .linalg import Matrix, ONE, Q, ZERO, rational

MONOMIALS = ((0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1))
MONOMIAL_NAMES = ("1", "x", "x^2", "x^3", "y", "xy")


class PolyMapError(CheckFailed):
    """An explicit Hopf-map identity failed; carries the identity name."""

    def __init__(self, identity):
        super().__init__(f"map violates the {identity} identity")
        self.identity = identity


# multiplication by x on the basis: x^4 -> 5x^2 - 4 and x^2 y -> y
_X = Matrix.from_entries(6, 6, [(1, 0, ONE), (2, 1, ONE), (3, 2, ONE), (0, 3, Q(-4)),
                                (2, 3, Q(5)), (5, 4, ONE), (4, 5, ONE)])


def _y_operator(b):
    """Multiplication by y on the basis: x^2 y -> y and y^2 -> b x^2 - 4b."""
    return Matrix.from_entries(6, 6, [(4, 0, ONE), (5, 1, ONE), (4, 2, ONE), (5, 3, ONE),
                                      (2, 4, b), (0, 4, -4 * b), (3, 5, b), (1, 5, -4 * b)])


def normal_form(i, j, b):
    """Coordinates of x^i y^j on the basis (1, x, x^2, x^3, y, xy): i + j
    steps of multiplication by x and y, applied to 1."""
    b = rational(b)
    if any(isinstance(e, bool) or not isinstance(e, int) or e < 0 for e in (i, j)):
        raise ValueError(f"exponents must be non-negative integers, got {i!r}, {j!r}")
    one = Matrix.from_entries(6, 1, [(0, 0, ONE)])
    return list(monomials(_X, _y_operator(b), [(i, j)], one).column(0))


def ideal_generators(b):
    """The three generators of I as sparse polynomials {(i,j): coeff}."""
    b = rational(b)
    return (
        {(0, 2): ONE, (2, 0): -b, (0, 0): 4 * b},
        {(4, 0): ONE, (2, 0): Q(-5), (0, 0): Q(4)},
        {(3, 1): ONE, (1, 1): -ONE},
    )


def evaluate_poly(poly, point):
    x, y = point
    total = ZERO
    for (i, j), c in poly.items():
        total += c * x ** i * y ** j
    return total


class PolyHopfAlgebra(HopfPresentation):
    """The presentation Q[x,y]/I with parameter b as a HopfPresentation."""

    def __init__(self, b):
        b = rational(b)
        if b == 0:
            raise ValueError("b = 0 makes the comultiplication coefficient 1/2b undefined")
        if is_rational_square(b):
            raise ValueError(f"b = {b} is a rational square; the quadratic witness would be rational")
        mult = monomials(_X, _y_operator(b), MONOMIALS, Matrix.identity(6))
        unit = [ONE, ZERO, ZERO, ZERO, ZERO, ZERO]
        plain = Algebra(mult, unit)

        dx = {(1, 1): Q(1, 2), (4, 4): 1 / (2 * b)}
        dy = {(1, 4): Q(1, 2), (4, 1): Q(1, 2)}
        comul_entries = []
        for k, (i, j) in enumerate(MONOMIALS):
            term = {(0, 0): ONE}
            for _ in range(i):
                term = plain.tensor_mul(term, dx)
            for _ in range(j):
                term = plain.tensor_mul(term, dy)
            comul_entries.extend((a * 6 + bb, k, c) for (a, bb), c in term.items())
        comul = Matrix.from_entries(36, 6, comul_entries)

        counit = Matrix(1, 6, [Q(2) ** i if j == 0 else ZERO for (i, j) in MONOMIALS])
        antipode = Matrix.from_entries(6, 6, ((k, k, -ONE if j else ONE)
                                              for k, (i, j) in enumerate(MONOMIALS)))

        super().__init__(mult, unit, comul, counit, antipode, names=MONOMIAL_NAMES)


def variety_points(b):
    """The six rational points of the ideal's variety, when they exist.

    The x-quartic forces x in {-2,-1,1,2}; at x = +-2 the third generator
    forces y = 0, and at x = +-1 the first forces y^2 = -3b.  All six points
    are rational exactly when -3b is a rational square (e.g. b = -3, where
    y = +-3).  Raises ValueError otherwise, and at b = 0, where they collapse
    to four.
    """
    b = rational(b)
    if b == 0:
        raise ValueError("b = 0 gives four points, not six: (-1, 0) and (1, 0) repeat")
    t2 = -3 * b
    if not is_rational_square(t2):
        raise ValueError(f"-3b = {t2} is not a rational square; the variety is not split")
    num = isqrt(int(t2.numerator))
    den = isqrt(int(t2.denominator))
    t = Q(num, den)
    pts = [(Q(-2), ZERO), (Q(-1), t), (Q(1), t), (Q(2), ZERO), (Q(1), -t), (Q(-1), -t)]
    for g in ideal_generators(b):
        for pt in pts:
            if evaluate_poly(g, pt) != 0:
                raise CheckFailed(f"point {pt} does not annihilate the ideal")
    return pts


def evaluation_matrix(points):
    """Row j evaluates the basis monomials at point j."""
    return Matrix.from_rows([[x ** i * y ** j for (i, j) in MONOMIALS] for (x, y) in points])


def evaluation_is_homomorphism(P, point):
    """Exact check that evaluation v at a point is an algebra map to Q:
    v m = v (x) v and v u = 1, with v the row of monomial values."""
    v = evaluation_matrix([point])
    return v * P.mult == v.kron(v) and v * Matrix.from_columns([P.unit]) == Matrix.identity(1)


def check_iso_to_descended(P, H, gen):
    """The Hopf isomorphism from the presentation onto a descended cyclic
    structure: x -> gen + gen^-1, y -> w*(gen - gen^-1).

    Returns the 6x6 matrix of the map on the chosen bases after verifying
    every Hopf-map identity exactly; raises PolyMapError naming the first
    violated identity otherwise.
    """
    prov = _provenance_of(H)
    A = prov.parent
    if H.dim != 6 or P.dim != 6:
        raise ValueError("presentation and target must have dimension 6")
    t = A.N.index_of(gen)
    sol = prov.basis.solve(inverse_pair_columns(A, [t], [t]))
    if sol is None:
        raise PolyMapError("membership")
    x_h, y_h = sol.columns()
    T = monomials(H.mult_operator(x_h), H.mult_operator(y_h), MONOMIALS,
                  Matrix.from_columns([H.unit]))
    violation = hopf_map_violation(T, P, H)
    if violation is not None:
        raise PolyMapError(violation)
    return T


def scaling_invariance_check(b):
    """The presentations with parameters 4b and b are isomorphic via
    x -> x, y -> 2y (same witness field, rescaled witness).  Returns the
    diagonal matrix of the map after exact verification."""
    b = rational(b)
    src = PolyHopfAlgebra(4 * b)
    dst = PolyHopfAlgebra(b)
    T = Matrix.from_entries(6, 6, ((k, k, Q(2) if j else ONE)
                                   for k, (i, j) in enumerate(MONOMIALS)))
    violation = hopf_map_violation(T, src, dst)
    if violation is not None:
        raise PolyMapError(violation)
    return T


def point_decomposition_check(b):
    """Cross-check of the Wedderburn splitting against the variety points.

    The six evaluation maps are pairwise distinct algebra homomorphisms;
    their Lagrange idempotents (preimages of the delta functions under the
    evaluation matrix) must coincide, as a set, with the component units
    found by the eigenvalue splitting.  Returns a report dict.
    """
    P = PolyHopfAlgebra(b)
    pts = variety_points(b)
    ev = evaluation_matrix(pts)
    report = {
        "points": pts,
        "evaluations_are_homomorphisms": all(
            evaluation_is_homomorphism(P, pt) for pt in pts),
        "points_distinct": len(set(pts)) == 6,
        "evaluation_rank": ev.rank(),
    }
    lagrange = ev.solve(Matrix.identity(6))
    wedder = commutative_wedderburn(P)
    units = {tuple(c.unit) for c in wedder.components}
    lag_units = {tuple(lagrange.column(j)) for j in range(6)}
    report["wedderburn_summary"] = wedder.summary()
    report["six_one_dimensional"] = wedder.summary() == tuple([(1, 1, "field")] * 6)
    report["units_match_lagrange"] = units == lag_units
    report["passed"] = (report["evaluations_are_homomorphisms"]
                        and report["points_distinct"]
                        and report["evaluation_rank"] == 6
                        and report["six_one_dimensional"]
                        and report["units_match_lagrange"])
    return report
