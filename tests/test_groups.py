import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfgalois.algebra import group_hopf_algebra, hopf_axiom_report
from hopfgalois.catalog import SUPPORTED_PRIMES, catalog
from hopfgalois.groups import (ClosureBoundExceeded, FiniteGroup, Perm, PermSubgroup,
                               GroupIso, UnknownGroupType, closure, conj_by,
                               cyclic, dihedral, elementary_abelian_4,
                               enumerate_regular_normalized,
                               equivariant_iso_search, group_isomorphisms,
                               is_normalized_by, is_regular, iso_type,
                               left_regular, right_regular)

perms6 = st.permutations(range(6)).map(lambda im: Perm(tuple(im)))


def test_perm_basics():
    p = Perm((1, 2, 0))
    assert p.order() == 3
    assert (p * p.inverse()).is_identity()
    assert not p.has_fixed_point()
    assert Perm.identity(3).has_fixed_point()


@given(perms6, perms6)
@settings(max_examples=50, deadline=None)
def test_perm_inverse_antihomomorphism(p, q):
    assert (p * q).inverse() == q.inverse() * p.inverse()


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.permutations(range(n)),
                                                       st.permutations(range(n)))))
@settings(max_examples=80, deadline=None)
def test_a_product_is_the_validated_composition(pair):
    p, q = (Perm(tuple(im)) for im in pair)
    validated = Perm(tuple(p(q(x)) for x in range(p.degree)))
    product = p * q
    assert product == validated and hash(product) == hash(validated)
    assert type(product) is Perm and product.images == validated.images
    assert product * q.inverse() == p


@pytest.mark.parametrize("left, right", [((1, 0), (0, 2, 1)), ((0, 2, 1), (1, 0))])
def test_permutations_of_different_degrees_do_not_compose(left, right):
    with pytest.raises(ValueError, match="different degrees"):
        Perm(left) * Perm(right)


def _is_group_table(G):
    """The group axioms of a Cayley table, as Q[G]'s Hopf axiom report."""
    return hopf_axiom_report(group_hopf_algebra(G)).passed


def _is_subgroup(N):
    """Closure of N's element list under products: closure(N.elements,
    N.order) raises ClosureBoundExceeded when it grows past N."""
    return closure(N.elements, N.order).canonical_key() == N.canonical_key()


def test_dihedral_construction():
    G = dihedral(3)
    assert _is_group_table(G)
    assert G.order == 6
    r, s = G.generators
    assert G.element_order(r) == 3
    assert G.element_order(s) == 2
    # s r s = r^-1
    assert G.mul(G.mul(s, r), s) == G.inv(r)


@pytest.mark.parametrize("bad", [1, 2, 4, 9, 15])
def test_dihedral_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        dihedral(bad)


def test_cyclic_and_klein():
    assert _is_group_table(cyclic(6))
    V = elementary_abelian_4()
    assert _is_group_table(V)
    assert sorted(V.element_order(a) for a in range(4)) == [1, 2, 2, 2]


@pytest.mark.parametrize("bad", [0, -3, 2.5, "3", True, False, None])
def test_cyclic_refuses_an_order_that_is_not_a_positive_int(bad):
    with pytest.raises(ValueError, match="positive integer"):
        cyclic(bad)


def test_regular_representations_commute():
    G = dihedral(5)
    lam, rho = left_regular(G), right_regular(G)
    assert is_regular(lam) and is_regular(rho)
    for a in lam.elements:
        for b in rho.elements:
            assert a * b == b * a
    assert lam.canonical_key() != rho.canonical_key()


def test_conjugation_normalizes_catalog_subgroups():
    G = dihedral(3)
    lam, rho = left_regular(G), right_regular(G)
    assert is_normalized_by(rho, lam)
    assert is_normalized_by(lam, lam)
    g = lam.elements[1]
    x = rho.elements[2]
    assert conj_by(g, x) == g * x * g.inverse()


@given(perms6, perms6)
@settings(max_examples=50, deadline=None)
def test_conj_by_matches_the_product_formula(g, p):
    assert conj_by(g, p) == g * p * g.inverse()


def _normalized_by_every_element(N, translations):
    """Reference for is_normalized_by: all |translations| * |N| conjugates."""
    return all(g * p * g.inverse() in N for g in translations.elements for p in N.elements)


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_generator_normalization_matches_the_full_check_on_the_catalog(p):
    lam = left_regular(dihedral(p))
    for e in catalog(p):
        assert is_normalized_by(e.subgroup, lam) == _normalized_by_every_element(e.subgroup, lam)
        assert is_normalized_by(e.subgroup, lam), e.label


@pytest.mark.parametrize("G", [dihedral(3), elementary_abelian_4()])
def test_generator_normalization_matches_the_full_check_on_enumerated_subgroups(G):
    lam = left_regular(G)
    subs = enumerate_regular_normalized(G)
    assert subs
    for N in subs:
        assert _normalized_by_every_element(N, lam)
        assert is_normalized_by(N, lam)


def test_generator_normalization_rejects_the_six_cycle():
    lam = left_regular(dihedral(3))
    N = closure([Perm((1, 2, 3, 4, 5, 0))], 6)
    assert is_regular(N)
    assert _normalized_by_every_element(N, lam) is False
    assert is_normalized_by(N, lam) is False


def test_generator_normalization_tries_every_generator():
    G = dihedral(3)
    lam = left_regular(G)
    r, s = G.generators
    assert lam.group.generators == (r, s)
    ident = Perm.identity(G.order)
    # {1, lam(r)} is preserved by conjugation with lam(r) but not with lam(s),
    # {1, lam(s)} the other way round
    for kept, moved in ((r, s), (s, r)):
        S = PermSubgroup(G.order, (ident, lam.elements[kept]))
        assert all(conj_by(lam.elements[kept], x) in S for x in S.elements)
        assert not all(conj_by(lam.elements[moved], x) in S for x in S.elements)
        assert _normalized_by_every_element(S, lam) is False
        assert is_normalized_by(S, lam) is False


def test_closure_and_bound():
    G = dihedral(3)
    lam = left_regular(G)
    full = closure([lam.elements[1], lam.elements[3]], 6)
    assert full.order == 6
    assert _is_subgroup(full)
    with pytest.raises(ClosureBoundExceeded):
        closure([lam.elements[1], lam.elements[3]], bound=4)
    # four of the six elements are not closed: their closure outgrows them
    with pytest.raises(ClosureBoundExceeded):
        _is_subgroup(PermSubgroup(6, full.elements[:4]))


@pytest.mark.parametrize("bound", [0, -3, True, False, 2.5, "x", "6"])
def test_closure_rejects_a_bound_that_is_not_a_positive_int(bound):
    lam = left_regular(dihedral(3))
    with pytest.raises(ValueError, match="closure bound must be a positive integer"):
        closure([lam.elements[1], lam.elements[3]], bound=bound)


def test_iso_type_labels():
    assert iso_type(left_regular(cyclic(6))) == "C6"
    assert iso_type(left_regular(dihedral(3))) == "D3"
    assert iso_type(left_regular(dihedral(7))) == "D7"
    assert iso_type(left_regular(elementary_abelian_4())) == "C2xC2"
    assert iso_type(left_regular(cyclic(14))) == "C14"


def test_iso_type_rejects_unknown_census():
    # C2 x C4 is neither cyclic nor dihedral nor Klein
    c2, c4 = cyclic(2), cyclic(4)
    table = tuple(
        tuple(c2.mul(a2, b2) * 4 + c4.mul(a4, b4)
              for b2 in range(2) for b4 in range(4))
        for a2 in range(2) for a4 in range(4))
    G = FiniteGroup(table, tuple(str(i) for i in range(8)), 0, (4, 1))
    assert _is_group_table(G)
    with pytest.raises(UnknownGroupType):
        iso_type(left_regular(G))
    with pytest.raises(ValueError):
        iso_type(left_regular(cyclic(16)))  # 16 is not 2*(odd prime)
    # 2q for odd prime q is identifiable at any size
    assert iso_type(left_regular(dihedral(11))) == "D11"
    assert iso_type(left_regular(cyclic(26))) == "C26"


def test_group_isomorphism_counts():
    d3, c6 = left_regular(dihedral(3)), left_regular(cyclic(6))
    assert len(group_isomorphisms(d3, d3)) == 6
    assert len(group_isomorphisms(c6, c6)) == 2
    assert group_isomorphisms(d3, c6) == []
    iso = group_isomorphisms(d3, d3)[0]
    assert iso.verify()
    swapped = list(iso.mapping)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert not GroupIso(d3, d3, tuple(swapped)).verify()
    assert not GroupIso(d3, d3, (0,) * 6).verify()
    for p in (5, 7):
        by_label = {e.label: e.subgroup for e in catalog(p)}
        rho, lam, n0, n1 = (by_label[k] for k in ("rho", "lambda", "N0", "N1"))
        assert len(group_isomorphisms(rho, rho)) == p * (p - 1)  # |Aut(D_p)|
        assert len(group_isomorphisms(n0, n1)) == p - 1  # |Aut(C_2p)|
        assert len(group_isomorphisms(rho, lam)) == p * (p - 1)
        assert group_isomorphisms(rho, n0) == []


def test_group_generators_regenerate():
    N = left_regular(dihedral(5))
    gens = [N.elements[t] for t in N.group.generators]
    assert closure(gens, N.order).canonical_key() == N.canonical_key()
    assert len(gens) == 2


@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_group_view_reads_products_at_positions(p):
    for e in catalog(p):
        N = e.subgroup
        G = N.group
        assert G.order == N.order
        assert G.names == tuple(N.name_of(t) for t in range(N.order))
        assert N.elements[G.identity].is_identity(), e.label
        for t, a in enumerate(N.elements):
            assert all(N.elements[G.table[t][u]] == a * b for u, b in enumerate(N.elements))
            assert (a * N.elements[G.inverses[t]]).is_identity(), e.label
        gens = [N.elements[t] for t in G.generators]
        assert closure(gens, N.order).canonical_key() == N.canonical_key(), e.label
        assert _is_subgroup(N), e.label


@pytest.mark.parametrize("p", [3, 5, 7])
def test_left_regular_group_is_the_group_it_translates(p):
    G = dihedral(p)
    view = left_regular(G).group
    assert view.table == G.table
    assert view.identity == G.identity
    assert view.generators == G.generators


def test_check_axioms_names_a_missing_inverse():
    monoid = FiniteGroup(((0, 1), (1, 1)), ("1", "z"), identity=0, generators=(1,))
    assert monoid.inverses == (0, None)
    with pytest.raises(ValueError, match="permutation"):
        group_hopf_algebra(monoid)


def test_equivariant_search_separates_translations():
    G = dihedral(3)
    lam, rho = left_regular(G), right_regular(G)
    isos, rejected = equivariant_iso_search(lam, rho, G)
    assert isos == []
    assert len(rejected) == 6
    for iso, (g, t) in rejected:
        gp = lam.elements[g]
        x = lam.elements[t]
        lhs = rho.elements[iso.mapping[lam.index_of(conj_by(gp, x))]]
        rhs = conj_by(gp, rho.elements[iso.mapping[t]])
        assert lhs != rhs  # witness really is a failure


def test_conjugation_gives_positions_and_marks_conjugates_outside():
    G = dihedral(3)
    lam, rho = left_regular(G), right_regular(G)
    # left and right translations commute
    assert all(rho.conjugation(g) == tuple(range(6)) for g in lam.elements)
    N = closure([Perm((1, 2, 3, 4, 5, 0))], 6)
    rows = [N.conjugation(g) for g in lam.elements]
    assert any(None in row for row in rows)
    for g, row in zip(lam.elements, rows):
        for eta, t in zip(N.elements, row):
            image = conj_by(g, eta)
            assert (t is None) == (image not in N)
            assert t is None or N.elements[t] == image


def test_equivariant_search_rejects_a_subgroup_that_is_not_normalized():
    G = dihedral(3)
    N = closure([Perm((1, 2, 3, 4, 5, 0))], 6)
    assert not is_normalized_by(N, left_regular(G))
    with pytest.raises(ValueError, match="does not normalize"):
        equivariant_iso_search(N, left_regular(G), G)
    with pytest.raises(ValueError, match="does not normalize"):
        equivariant_iso_search(left_regular(G), N, G)


@pytest.mark.parametrize("g", [-1, 6])
def test_equivariant_search_refuses_an_index_outside_the_group(g):
    """A negative index does not count from the end: -1 is not element 5."""
    G = dihedral(3)
    lam = left_regular(G)
    with pytest.raises(IndexError, match=f"group element index {g} out of range for size 6"):
        equivariant_iso_search(lam, lam, G, respect=[g])


def test_equivariant_search_positive():
    G = dihedral(3)
    lam = left_regular(G)
    isos, _ = equivariant_iso_search(lam, lam, G)
    assert isos  # identity at least
    ident = tuple(range(6))
    assert any(iso.mapping == ident for iso in isos)


def test_enumerate_d3():
    subs = enumerate_regular_normalized(dihedral(3))
    assert len(subs) == 5
    census = sorted(iso_type(N) for N in subs)
    assert census == ["C6", "C6", "C6", "D3", "D3"]
    for N in subs:
        assert is_regular(N)
        assert _is_subgroup(N)


def test_enumerate_klein():
    subs = enumerate_regular_normalized(elementary_abelian_4())
    assert sorted(iso_type(N) for N in subs) == ["C2xC2", "C4", "C4", "C4"]


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_enumerate_cyclic_of_order_prime_to_its_totient(q):
    # Byott 1996: gcd(n, phi(n)) = 1 makes lambda(C_n) the only structure
    subs = enumerate_regular_normalized(cyclic(q))
    assert [N.canonical_key() for N in subs] == [left_regular(cyclic(q)).canonical_key()]


def test_enumerate_cyclic_of_order_six():
    # Byott 2004: a cyclic group of order pq with q | p - 1 has 2q - 1 structures
    subs = enumerate_regular_normalized(cyclic(6))
    assert len(subs) == 3
    assert Counter(iso_type(N) for N in subs) == Counter({"C6": 1, "D3": 2})


def test_enumerate_rejects_large_groups():
    with pytest.raises(ValueError):
        enumerate_regular_normalized(dihedral(5))


def _elementary_abelian_8():
    """C2^3 on 0..7 with product a ^ b: a group with a 3-generated subgroup."""
    return FiniteGroup(tuple(tuple(a ^ b for b in range(8)) for a in range(8)),
                       tuple(str(a) for a in range(8)), identity=0, generators=(1, 2, 4))


def _subgroups_by_subsets(G):
    """Reference for all_subgroups: every subset holding the identity and closed
    under products, in the same order."""
    subsets = (frozenset(a for a in range(G.order) if mask >> a & 1)
               for mask in range(1 << G.order))
    return sorted((S for S in subsets if G.identity in S
                   and all(G.mul(a, b) in S for a in S for b in S)),
                  key=lambda S: (len(S), sorted(S)))


@pytest.mark.parametrize("G", [_elementary_abelian_8(), dihedral(3), elementary_abelian_4(),
                               cyclic(6), cyclic(8)])
def test_all_subgroups_matches_the_closed_subsets(G):
    assert G.all_subgroups() == _subgroups_by_subsets(G)


def test_all_subgroups_of_c2_cubed_includes_the_whole_group():
    # the whole group needs three generators
    assert len(_elementary_abelian_8().all_subgroups()) == 16


def test_enumerate_c2_cubed_is_complete():
    # C2^3 itself is 3-generated, so only a search that adds generators one at
    # a time finds lam(C2^3); the counts by type are those of the holomorph
    G = _elementary_abelian_8()
    subs = enumerate_regular_normalized(G)
    assert len(subs) == 106
    assert left_regular(G).canonical_key() in {N.canonical_key() for N in subs}
    types = {((1, 1), (2, 3), (4, 4)): "C4xC2", ((1, 1), (2, 5), (4, 2)): "D4",
             ((1, 1), (2, 1), (4, 6)): "Q8", ((1, 1), (2, 7)): "C2^3"}
    census = Counter(types[tuple(sorted(Counter(N.element_orders).items()))] for N in subs)
    assert census == Counter({"C4xC2": 42, "D4": 42, "Q8": 14, "C2^3": 8})
    for N in subs:
        assert is_regular(N) and _is_subgroup(N)


def _group_of_order_8(invert, square):
    """a^i b^j at index i + 4j, with a^4 = 1, b a b^-1 = a^-1 if `invert`
    (else a) and b^2 = a^2 if `square` (else 1): C4xC2, D4 or Q8."""
    def mul(x, y):
        i, j, k, l = x % 4, x // 4, y % 4, y // 4
        return (i + (-k if invert and j else k) + 2 * square * j * l) % 4 + 4 * ((j + l) % 2)
    return FiniteGroup(tuple(tuple(mul(x, y) for y in range(8)) for x in range(8)),
                       tuple(str(x) for x in range(8)), identity=0, generators=(1, 4))


# every group of order 8, and C6: the group, its element orders, the number of
# regular subgroups normalized by lambda(G), and the SHA-256 of their
# canonical keys as the search listed them before it grew by joins
ENUMERATIONS = {
    "C6": (cyclic(6), {1: 1, 2: 1, 3: 2, 6: 2}, 3,
           "12328395824e85b95b418db088952037a482c69216682d2c5be03c8062210f29"),
    "C8": (cyclic(8), {1: 1, 2: 1, 4: 2, 8: 4}, 6,
           "1c33a34b4e4c4f27f4ce73ee85d8e90f02250db11d94cbd3110bde506d94243d"),
    "C4xC2": (_group_of_order_8(False, False), {1: 1, 2: 3, 4: 4}, 26,
              "4ba244c887627162a772c27c2bdd0ec197d668ed6b1471a7ffa78ea919e4924a"),
    "C2^3": (_elementary_abelian_8(), {1: 1, 2: 7}, 106,
             "e8a25c363f726884bdb752acb987d5d4fab8854772c38797f0bf7e037fafd7fe"),
    "D4": (_group_of_order_8(True, False), {1: 1, 2: 5, 4: 2}, 30,
           "139a12677eee17b050d258aea3c68c88d54f1b0edfd35209caf65d0ceed0bea3"),
    "Q8": (_group_of_order_8(True, True), {1: 1, 2: 1, 4: 6}, 22,
           "10488a039795555b8cbf204d9f012554c73e342b19ce5662e07b2e0bd4d4c325"),
}


@pytest.mark.parametrize("name", ENUMERATIONS)
def test_enumeration_matches_its_reference(name):
    G, orders, count, digest = ENUMERATIONS[name]
    assert _is_group_table(G)
    assert Counter(G.element_order(a) for a in range(G.order)) == orders
    subs = enumerate_regular_normalized(G)
    assert len(subs) == count
    keys = repr(tuple(N.canonical_key() for N in subs)).encode()
    assert hashlib.sha256(keys).hexdigest() == digest
    lam = left_regular(G)
    for N in subs:
        assert is_regular(N) and is_normalized_by(N, lam) and _is_subgroup(N)


# every hand-written Cayley table: D_p at each supported p, C_n for n <= 8,
# the Klein four group and the five tables of order 8
TABLES = {**{f"D{p}": dihedral(p) for p in SUPPORTED_PRIMES},
          **{f"C{n}": cyclic(n) for n in range(1, 9)}, "C2xC2": elementary_abelian_4(),
          **{name: ENUMERATIONS[name][0] for name in ("C8", "C4xC2", "C2^3", "D4", "Q8")}}


@pytest.mark.parametrize("name", TABLES)
def test_every_hand_written_table_is_a_group(name):
    assert _is_group_table(TABLES[name])


def test_a_non_associative_latin_square_fails_associativity():
    # a loop of order 5: a Latin square with identity 0, so every element has an
    # inverse, but (1 1) 2 = 2 while 1 (1 2) = 4
    table = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1),
             (4, 3, 1, 2, 0))
    loop = FiniteGroup(table, tuple(map(str, range(5))), identity=0, generators=(1,))
    first = next((a, b, c) for a in range(5) for b in range(5) for c in range(5)
                 if table[table[a][b]][c] != table[a][table[b][c]])
    report = hopf_axiom_report(group_hopf_algebra(loop))
    assert report[0].passed
    assert report[1] == ("associativity", False, "associativity fails at ({},{},{})".format(*first))


@pytest.mark.parametrize("images", [(0, None), (0.0, 1), (1, 0.0), (True, 0), (0, 0), (1, 2)])
def test_perm_refuses_images_that_are_not_the_ints_below_the_degree(images):
    with pytest.raises(ValueError, match="permutation of 0..n-1"):
        Perm(images)


def test_perm_stores_its_images_as_a_tuple():
    p = Perm([1, 0])
    assert type(p.images) is tuple
    assert p == Perm((1, 0)) and hash(p) == hash(Perm((1, 0)))
    assert PermSubgroup(2, (Perm((0, 1)), Perm([1, 0]))).index_of(Perm((1, 0))) == 1
    # a copy with other images is checked as a new Perm is
    assert p._replace(images=[0, 1]) == Perm((0, 1))
    with pytest.raises(ValueError, match="permutation of 0..n-1"):
        p._replace(images=(0, 0))


def test_subgroup_lookup():
    N = left_regular(dihedral(3))
    assert N.index_of(N.elements[4]) == 4
    with pytest.raises(KeyError):
        N.index_of(Perm((1, 0, 2, 3, 4, 5)))
