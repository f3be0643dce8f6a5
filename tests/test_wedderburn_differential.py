"""Differential test for the commutative Wedderburn split.

`list_split` below is the split written on coordinate lists: each candidate
z is first multiplied into the component unit e, and ez acts on the
component through a restricted operator.  The package splits on the
multiplication operators L_z of the candidates themselves, with elements as
one-column matrices.  On every semisimple input here both must give the
same report: summaries, units, bases and the order of the components.
"""

import importlib
from math import gcd, lcm

import pytest

from hopfgalois.algebra import Algebra, algebra_axiom_report, group_hopf_algebra
from hopfgalois.analysis import (KIND_FIELD, KIND_UNDETERMINED, WedderburnComponent,
                                 WedderburnReport, commutative_wedderburn,
                                 minimal_polynomial, noncommutative_wedderburn_p3,
                                 rational_roots)
from hopfgalois.groups import cyclic, dihedral
from hopfgalois.linalg import Matrix, ONE, Q, hstack
from hopfgalois.polyform import PolyHopfAlgebra


# -- reference: the split on coordinate lists ---------------------------------------

def _column_basis(m):
    """The kernel form of the column space of m, computed densely: the rref of
    m^T with its coordinates reversed, each nonzero row read back in order,
    scaled to integers with content 1 and a positive first nonzero, and the
    rows sorted as tuples."""
    red, pivots = Matrix.from_rows([c[::-1] for c in m.columns()]).rref()
    cols = []
    for i in range(len(pivots)):
        c = red.row(i)[::-1]
        den = lcm(*(x.denominator for x in c))
        ints = [int(x * den) for x in c]
        g = gcd(*ints)
        cols.append(tuple(x // (g if next(y for y in ints if y) > 0 else -g) for x in ints))
    return Matrix.from_columns(sorted(cols), rows=m.rows)


def _restricted_operator(H, basis, x):
    sol = basis.solve(H.mult_operator(x) * basis)
    assert sol is not None, "span is not an ideal"
    return sol


def _split_unit(H, unit, part_a, part_b):
    sol = hstack(part_a, part_b).solve(Matrix.from_columns([list(unit)], rows=H.dim))
    assert sol is not None, "unit left the component"
    ua = part_a.apply([sol[i, 0] for i in range(part_a.cols)])
    ub = part_b.apply([sol[part_a.cols + i, 0] for i in range(part_b.cols)])
    for u in (ua, ub):
        assert H.mul(u, u) == u
    assert not any(H.mul(ua, ub))
    return ua, ub


def list_split(H):
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
            done.append(WedderburnComponent(1, 1, KIND_FIELD, tuple(unit), basis))
            continue
        split = None
        for z in seq:
            Mz = _restricted_operator(H, basis, H.mul(unit, z))
            for a in rational_roots(minimal_polynomial(Mz)):
                shifted = Mz - Matrix.identity(k) * a
                ker = shifted.kernel()
                if 0 < ker.cols < k:
                    part_a = _column_basis(basis * ker)
                    part_b = _column_basis(basis * shifted)
                    assert part_a.cols + part_b.cols == k
                    ua, ub = _split_unit(H, unit, part_a, part_b)
                    split = ((ua, part_a), (ub, part_b))
                    break
            if split:
                break
        if split:
            work.extend(split)
        else:
            done.append(WedderburnComponent(k, k, KIND_UNDETERMINED, tuple(unit), basis))
    done.sort(key=lambda c: (c.dim, tuple(c.unit)))
    return WedderburnReport(done)


def assert_same_split(H):
    ours, reference = commutative_wedderburn(H), list_split(H)
    assert ours.summary() == reference.summary()
    # named-tuple equality: dim, center_dim, kind, unit and basis, in order
    assert ours.components == reference.components
    assert all(type(c.unit) is tuple for c in ours.components)


# -- inputs ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12])
def test_cyclic_group_algebras_split_alike(n):
    assert_same_split(group_hopf_algebra(cyclic(n)))


@pytest.mark.parametrize("b", [Q(-3 * 7 ** 2, 5 ** 2), Q(-1)], ids=["split", "nonsplit"])
def test_polynomial_forms_split_alike(b):
    assert_same_split(PolyHopfAlgebra(b))


def test_cubic_p3_nc_presentations_split_alike(descended3):
    commutative = [H for H in descended3.values() if H.is_commutative()]
    assert len(commutative) == 3
    for H in commutative:
        assert_same_split(H)


def test_split_p5_nc_presentations_split_alike(split5_nc):
    assert sorted(split5_nc) == ["N0", "N1", "N2", "N3", "N4"]
    for H in split5_nc.values():
        assert_same_split(H)


def gaussian_pair_algebra():
    """Q(i) x Q(i) on the basis (i, i), (1 - i, 2 - i), (i, 2i), (1 + i, 3 + i).

    No basis vector has a rational eigenvalue, so only a pairwise sum, here
    the first two, (1, 2), splits it."""
    def times(x, y):  # (a + bi, c + di) as (a, b, c, d)
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0],
                x[2] * y[2] - x[3] * y[3], x[2] * y[3] + x[3] * y[2])

    zs = [(0, 1, 0, 1), (1, -1, 2, -1), (0, 1, 0, 2), (1, 1, 3, 1)]
    B = Matrix.from_columns(zs)
    mult = B.solve(Matrix.from_columns([times(x, y) for x in zs for y in zs]))
    return Algebra(mult, B.solve(Matrix.from_columns([(1, 0, 1, 0)])).column(0))


def test_only_a_pairwise_sum_splits_the_gaussian_pair_algebra():
    A = gaussian_pair_algebra()
    assert algebra_axiom_report(A).passed
    assert commutative_wedderburn(A).summary() == ((2, 2, "undetermined"),) * 2
    assert_same_split(A)


def test_centres_of_the_noncommutative_p3_algebras_split_alike(descended3, monkeypatch):
    analysis = importlib.import_module("hopfgalois.analysis")
    seen = []

    def recording(C):
        report = commutative_wedderburn(C)
        seen.append((C, report))
        return report

    monkeypatch.setattr(analysis, "commutative_wedderburn", recording)
    for H in (group_hopf_algebra(dihedral(3)), descended3["rho"], descended3["lambda"]):
        noncommutative_wedderburn_p3(H)
    assert len(seen) == 3
    for C, report in seen:
        assert report.components == list_split(C).components
