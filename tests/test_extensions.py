import gc
import json
import os
from math import isqrt
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois.catalog import SUPPORTED_PRIMES
from hopfgalois.extensions import (GaloisAlgebra, is_rational_cube, is_rational_square,
                                   quadratic_field, quadratic_sqrt_witness,
                                   rational_sqrt, rational_square_of, split_model,
                                   splitting_field_cubic)
from hopfgalois.groups import cyclic, dihedral
from hopfgalois.linalg import Matrix, ONE, Q, ZERO

# frozen witness data: the square root of -3 in the degree-6 splitting field,
# on the basis (1, a, a^2, z, az, a^2z), is 1 + 2z independently of v
CUBIC_WITNESS = [Q(1), Q(0), Q(0), Q(2), Q(0), Q(0)]
SPLIT_WITNESS_D3 = [Q(1), Q(1), Q(1), Q(-1), Q(-1), Q(-1)]


def test_cube_and_square_predicates():
    assert is_rational_cube(Q(8))
    assert is_rational_cube(Q(-27))
    assert is_rational_cube(Q(27, 8))
    assert not is_rational_cube(Q(2))
    assert is_rational_square(Q(9, 4))
    assert not is_rational_square(Q(-1))
    assert not is_rational_square(Q(5))
    assert rational_sqrt(Q(9, 4)) == Q(3, 2)
    assert rational_sqrt(0) == 0


_BIG = 2 ** 200
_NUMERATORS = st.integers(-_BIG, _BIG)
_DENOMINATORS = st.integers(1, _BIG)
_NON_SQUARES = st.integers(-_BIG, _BIG).filter(lambda q: q < 0 or isqrt(q) ** 2 != q)


@settings(max_examples=200, deadline=None)
@given(_NUMERATORS, _DENOMINATORS, _NON_SQUARES, st.integers(1, _BIG), _DENOMINATORS)
def test_rational_sqrt_is_the_nonnegative_root_of_a_square(a, b, q, m, n):
    x, s = Q(a, b), Q(m, n)
    assert rational_sqrt(x * x) == abs(x)
    # q s^2 = r^2 would make the integer q the rational square (r/s)^2
    assert rational_sqrt(q * s * s) is None
    negative = -abs(x) if x else -s
    assert rational_sqrt(negative) is None
    for v in (x * x, q * s * s, negative, x, s):
        assert is_rational_square(v) == (rational_sqrt(v) is not None)


def test_cube_predicate_on_huge_powers_of_ten():
    assert is_rational_cube(Q(10) ** 30000)
    assert not is_rational_cube(Q(10) ** 30001)


def test_cube_predicate_near_a_40_digit_cube():
    k = 1234567890123456789012345678901234567891
    assert len(str(k)) == 40
    assert is_rational_cube(Q(k ** 3))
    assert not is_rational_cube(Q(k ** 3 + 1))
    assert not is_rational_cube(Q(k ** 3 - 1))


def test_cube_predicate_on_negatives_and_fractions():
    k = 10 ** 25 + 7
    assert is_rational_cube(Q(-(k ** 3)))
    assert not is_rational_cube(Q(-(k ** 3) + 1))
    assert is_rational_cube(Q(-8, 27))
    assert is_rational_cube(Q(k ** 3, 125))
    assert not is_rational_cube(Q(k ** 3, 4))
    assert not is_rational_cube(Q(8, 2 * 10 ** 30))


@given(st.integers(0, 10 ** 60))
@settings(max_examples=300, deadline=None)
def test_cube_predicate_matches_exact_cubes(k):
    assert is_rational_cube(Q(k ** 3))
    if k > 0:
        assert not is_rational_cube(Q(k ** 3 + 1))
    if k > 1:
        assert not is_rational_cube(Q(k ** 3 - 1))

@pytest.mark.parametrize("v", [2, 3, 5, Q(3, 2)])
def test_cubic_field_axioms(v):
    L = splitting_field_cubic(v)
    assert L.dim == 6
    assert L.verify().passed
    a = L.basis_vector(1)
    assert L.mul(a, L.mul(a, a)) == [Q(v), Q(0), Q(0), Q(0), Q(0), Q(0)]


@pytest.mark.parametrize("v", [1, 8, -27, Q(27, 8)])
def test_cubic_rejects_cubes(v):
    with pytest.raises(ValueError):
        splitting_field_cubic(v)


@pytest.mark.parametrize("v", [2, 3, 5])
def test_cubic_witness_frozen(v):
    L = splitting_field_cubic(v)
    w = quadratic_sqrt_witness(L)
    assert w == CUBIC_WITNESS
    assert rational_square_of(L, w) == Q(-3)


def test_split_model():
    L = split_model(dihedral(3))
    assert L.verify().passed
    w = quadratic_sqrt_witness(L)
    assert w == SPLIT_WITNESS_D3
    assert rational_square_of(L, w) == Q(1)


def test_split_model_larger_prime():
    L = split_model(dihedral(7))
    assert L.dim == 14
    assert L.verify().passed
    assert rational_square_of(L, quadratic_sqrt_witness(L)) == Q(1)


def test_quadratic_field():
    L = quadratic_field(5)
    assert L.verify().passed
    w = quadratic_sqrt_witness(L)
    assert rational_square_of(L, w) == Q(5)


def test_rational_square_of_rejects_irrational_square():
    L = splitting_field_cubic(2)
    with pytest.raises(ValueError):
        rational_square_of(L, L.basis_vector(1))  # the cube root a: a^2 is irrational


QUADRATIC_5 = Matrix.from_columns([(ONE, ZERO), (ZERO, ONE), (ZERO, ONE), (Q(5), ZERO)])


def test_verify_names_first_counterexamples():
    # g acts as w -> 2w: neither an involution nor an algebra map
    L = GaloisAlgebra(QUADRATIC_5, (ONE, ZERO), cyclic(2),
                      {1: Matrix.from_rows([[ONE, ZERO], [ZERO, Q(2)]])})
    assert L.verify().failures() == [
        ("action-homomorphism", "fails at (g, g)"),
        ("action-by-algebra-maps", "fails for g at basis (1,1)"),
    ]


def test_verify_fails_loudly_under_python_O():
    # python -O strips assert statements; verify() must still see that a
    # trivial action leaves a fixed field larger than Q
    script = (
        "import json, sys\n"
        "from hopfgalois.extensions import GaloisAlgebra\n"
        "from hopfgalois.groups import cyclic\n"
        "from hopfgalois.linalg import Matrix, ONE, Q, ZERO\n"
        "mult = Matrix.from_columns([(ONE, ZERO), (ZERO, ONE), (ZERO, ONE), (Q(5), ZERO)])\n"
        "L = GaloisAlgebra(mult, (ONE, ZERO), cyclic(2), {1: Matrix.identity(2)})\n"
        "print(json.dumps([sys.flags.optimize, L.verify().failures()]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == [1, [["fixed-field-is-Q", ""]]]


@pytest.mark.parametrize("b", [4, 9, Q(9, 4), 0, 1])
def test_quadratic_rejects_squares(b):
    with pytest.raises(ValueError):
        quadratic_field(b)


def test_action_is_group_homomorphism():
    L = splitting_field_cubic(2)
    G = L.group
    for g in range(G.order):
        for h in range(G.order):
            assert L.action[g] * L.action[h] == L.action[G.mul(g, h)]


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_action_by_algebra_maps(g, i, j):
    L = splitting_field_cubic(3)
    m = L.action[g]
    assert m.apply(L.mult.column(i * L.dim + j)) == L.mul(m.column(i), m.column(j))


def test_fixed_space_is_rationals():
    for L in (splitting_field_cubic(2), split_model(dihedral(5))):
        fixed = L.fixed_space(range(L.group.order))
        assert fixed.cols == 1
        assert fixed.column(0) == L.unit
        assert L.fixed_space(L.group.generators) == fixed


@pytest.mark.parametrize("g", [-1, -6, 6])
def test_fixed_space_refuses_an_index_outside_the_group(g):
    """A negative index does not count from the end: -1 is not element 5."""
    with pytest.raises(IndexError, match=f"group element index {g} out of range for size 6"):
        split_model(dihedral(3)).fixed_space([g])


@pytest.mark.parametrize("g", [-1, 6])
def test_translates_refuse_an_index_outside_the_group(g):
    """A negative index does not count from the end: -1 is not element 5."""
    with pytest.raises(IndexError, match=f"group element index {g} out of range for size 6"):
        split_model(dihedral(3)).translates([g])


def _is_closed_subalgebra(L, basis):
    """Whether the span of the columns of `basis` holds 1 and every product."""
    return (basis.solve(Matrix.from_columns([L.unit])) is not None
            and basis.solve(L.mult * basis.kron(basis)) is not None)


def test_fixed_subalgebra_closed():
    L = splitting_field_cubic(2)
    G = L.group
    # <s> fixes a cubic subfield of dimension 3
    s = G.generators[1]
    basis = L.fixed_space([G.identity, s])
    assert basis.cols == 3
    assert _is_closed_subalgebra(L, basis)


def test_splitting_field_cubic_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        splitting_field_cubic(2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_subalgebra_not_closed():
    L = splitting_field_cubic(2)
    # span{1, a} is not closed: a*a = a^2 falls outside
    basis = Matrix.from_columns([L.unit, L.basis_vector(1)], rows=6)
    assert not _is_closed_subalgebra(L, basis)


def test_witness_rejects_wrong_model():
    # quadratic witness needs an order-2 generator acting; cyclic C3 model
    # has none, so the witness should fail loudly rather than return junk
    from hopfgalois.groups import cyclic
    with pytest.raises((ValueError, KeyError, IndexError)):
        quadratic_sqrt_witness(split_model(cyclic(3)))


def _with_idempotent(L, e):
    return GaloisAlgebra(L.mult, L.unit, L.group, L.generator_action, names=L.names,
                         idempotent=e)


IDEMPOTENT_CHECKS = {"idempotent", "idempotent-translates-orthogonal",
                     "idempotent-translates-sum-to-unit", "idempotent-residue-dimension"}


@pytest.mark.parametrize("p", [3, 5, 13])
def test_split_model_idempotent_is_the_identity_point(p):
    G = dihedral(p)
    L = split_model(G)
    assert L.idempotent == Matrix.identity(L.dim).column(G.identity)
    report = L.verify()
    assert report.passed, report.failures()
    assert IDEMPOTENT_CHECKS <= {c.name for c in report}


@pytest.mark.parametrize("L", [splitting_field_cubic(2), quadratic_field(5)],
                         ids=["cubic:2", "quadratic:5"])
def test_fields_take_the_unit_as_their_idempotent(L):
    assert L.idempotent == L.unit
    assert L.verify().passed


def test_an_idempotent_whose_translates_overlap_fails_verify():
    """e = d[1] + d[r] at p = 3 is idempotent, but its six translates d[g] + d[gr]
    overlap, do not sum to 1 and would give L six copies of a plane."""
    G = dihedral(3)
    L = split_model(G)
    e = [ONE if g in (G.identity, G.generators[0]) else ZERO for g in range(G.order)]
    assert _with_idempotent(L, e).verify().failures() == [
        ("idempotent-translates-orthogonal", ""),
        ("idempotent-translates-sum-to-unit", ""),
        ("idempotent-residue-dimension", "dim(eL) = 2, [G : D] = 6, dim L = 6"),
    ]


def test_idempotent_checks_refuse_zero_and_non_idempotents():
    L = split_model(dihedral(3))
    for e in ([ZERO] * 6, [2 * x for x in L.idempotent]):
        assert ("idempotent", "") in _with_idempotent(L, e).verify().failures()
    with pytest.raises(ValueError):
        _with_idempotent(L, [ONE] * 5)


def test_an_idempotent_fixed_by_a_reflection_passes_verify():
    """e = d[1] + d[s]: D = <s>, three orthogonal translates d[g] + d[gs] sum
    to 1, and 2 * [G : D] = 6."""
    G = dihedral(3)
    e = [ONE if g in (G.identity, G.generators[1]) else ZERO for g in range(G.order)]
    assert _with_idempotent(split_model(G), e).verify().passed


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_the_split_model_takes_its_idempotent_as_its_normal_element(p):
    """theta = e = d[1], whose translate by g is the point d[g]: row g of
    the normal translates is basis vector g."""
    L = split_model(dihedral(p))
    assert L.normal_translates == Matrix.identity(2 * p)


# every non-cube v = a/b with 0 < |a| <= 40 and 1 <= b <= 7, each value once
CUBIC_VALUES = sorted({v for a in range(-40, 41) if a for b in range(1, 8)
                       for v in [Q(a, b)] if not is_rational_cube(v)})


def test_every_cubic_field_takes_z_plus_az_plus_a2z_as_its_normal_element():
    """theta = z + az + a^2z, the fourth candidate (after e = 1, a^2z and
    az + a^2z), for all 368 values, and row g of the normal translates is
    g(theta)."""
    theta = [ZERO, ZERO, ZERO, ONE, ONE, ONE]
    assert len(CUBIC_VALUES) == 368
    for v in CUBIC_VALUES:
        L = splitting_field_cubic(v)
        assert L.normal_translates == Matrix.from_rows([m.apply(theta) for m in L.action]), v


def test_an_action_given_at_the_generators_extends_to_every_element():
    L = split_model(dihedral(5))
    G = L.group
    lazy = GaloisAlgebra(L.mult, L.unit, G, {g: L.action[g] for g in G.generators})
    assert "action" not in vars(lazy)
    assert lazy.generator_action == L.generator_action
    assert lazy.action == L.action
    assert lazy.verify().passed
    with pytest.raises(ValueError, match="per generator"):
        GaloisAlgebra(L.mult, L.unit, G, {G.generators[0]: L.action[G.generators[0]]})
    for listed in (list(L.action), L.action):  # element by element is refused
        with pytest.raises(ValueError, match="^need one action matrix per generator$"):
            GaloisAlgebra(L.mult, L.unit, G, listed)


def test_cubic_action_extends_to_the_hand_listed_elements():
    """The cubic field's action read off r and s by group.extend is the list
    (I, r, r^2, s, rs, r^2 s) that r^i s^j at index i + 3j gives, for r and s
    written out on (1, a, a^2, z, az, a^2z): r(a^i z^j) = a^i z^(i+j) and
    s(a^i z^j) = a^i z^(2j), with z^2 = -1 - z and z^3 = 1."""
    L = splitting_field_cubic(2)
    r = Matrix.from_columns([(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, -1, 0, 0, -1),
                             (0, 0, 0, 1, 0, 0), (0, -1, 0, 0, -1, 0), (0, 0, 1, 0, 0, 0)])
    s = Matrix.from_columns([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0),
                             (-1, 0, 0, -1, 0, 0), (0, -1, 0, 0, -1, 0), (0, 0, -1, 0, 0, -1)])
    assert L.generator_action == {1: r, 3: s}
    assert L.action == (Matrix.identity(6), r, r * r, s, r * s, r * r * s)
