"""The regular normalized subgroups of Perm(D_p) for odd primes p <= 13.

For the dihedral group D_p = <r, s> there are exactly p + 2 Hopf-Galois
structures: the two translation subgroups rho(D_p) and lam(D_p), and p
cyclic subgroups N_0..N_{p-1} where N_c is generated by the permutation

    x  ->  r * x * r^c s,

i.e. the product of the left translation by r and the right translation by
(r^c s)^-1 = r^c s.  Each N_c is cyclic of order 2p; its generator is fixed
by conjugation with lam(r) and inverted by lam(s), and its unique
involution is the right translation by r^c s, which separates the N_c from
one another.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .algebra import CheckReport
from .groups import (PermSubgroup, Perm, conj_by, dihedral,
                     enumerate_regular_normalized, is_normalized_by,
                     is_regular, iso_type, left_regular, powers, right_regular)

SUPPORTED_PRIMES = (3, 5, 7, 11, 13)


def _require_supported(p):
    if p not in SUPPORTED_PRIMES:
        raise ValueError(f"p must be one of {SUPPORTED_PRIMES}, got {p!r}")


def cyclic_generator(p, c):
    """The permutation x -> r x r^c s of D_p, of order 2p."""
    _require_supported(p)
    if isinstance(c, bool) or not isinstance(c, int) or not 0 <= c < p:
        raise ValueError(f"c must be an int in 0..{p - 1}, got {c!r}")
    G = dihedral(p)
    r = G.generators[0]
    rcs = G.mul(c, G.generators[1])  # r^c at index c, times s
    return Perm(tuple(G.mul(G.mul(r, x), rcs) for x in range(G.order)))


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    subgroup: PermSubgroup
    iso_label: str
    basis_kind: str  # H's closed-form basis: "classical", "translation" or "cyclic"
    generator: Perm | None  # cyclic_generator(p, c) for N_c, None for rho and lambda


def catalog(p):
    """All p + 2 Hopf-Galois structures on a D_p extension, in the fixed
    order rho, lambda, N_0, ..., N_{p-1}."""
    _require_supported(p)
    G = dihedral(p)
    rho = right_regular(G)
    lam = left_regular(G)
    entries = [
        CatalogEntry("rho", rho, iso_type(rho), "classical", None),
        CatalogEntry("lambda", lam, iso_type(lam), "translation", None),
    ]
    r, s = G.generators
    for c in range(p):
        gen = lam.elements[r] * rho.elements[G.mul(c, s)]  # cyclic_generator(p, c)
        elems = powers(Perm.__mul__, gen, Perm.identity(G.order))  # elems[k] = gen^k
        N = PermSubgroup(G.order, tuple(elems), label=f"N{c}",
                         element_names=tuple(f"g^{k}" for k in range(2 * p)))
        entries.append(CatalogEntry(f"N{c}", N, iso_type(N), "cyclic", gen))
    return entries


def catalog_checks(p, entries):
    """Exact verification of every claimed property of the catalog at p.

    Checks `entries`, such as catalog(p).  Returns a CheckReport covering:
    entry count, regularity, normalization by left translations (by the
    generators of lam(D_p) alone, see is_normalized_by), the conjugation laws
    of the cyclic generators (fixed by r, inverted by s), the involution
    identity gen^p = rho(r^c s), and pairwise distinctness.  N_c lists gen^k
    at position k, so gen and gen^p are read from its entry.
    """
    G = dihedral(p)
    lam = left_regular(G)
    rho = right_regular(G)
    checks = CheckReport()

    checks.add("entry-count", len(entries) == p + 2, f"{len(entries)} structures")

    bad = next((e.label for e in entries if not is_regular(e.subgroup)), None)
    checks.add("regular", bad is None, bad and f"{bad} is not regular")

    bad = next((e.label for e in entries
                if not is_normalized_by(e.subgroup, lam)), None)
    checks.add("normalized", bad is None, bad and f"{bad} is not normalized")

    r_perm = lam.elements[G.generators[0]]
    s_perm = lam.elements[G.generators[1]]
    ok, detail = True, None
    for c, e in enumerate(entries[2:]):
        gen = e.subgroup.elements[1]
        if conj_by(r_perm, gen) != gen:
            ok, detail = False, f"conjugation by r moves the generator of N{c}"
            break
        if conj_by(s_perm, gen) != gen.inverse():
            ok, detail = False, f"conjugation by s does not invert the generator of N{c}"
            break
    checks.add("generator-conjugation", ok, detail)

    involutions = [e.subgroup.elements[p] for e in entries[2:]]
    bad = next((c for c, invol in enumerate(involutions)
                if invol != rho.elements[G.mul(c % p, G.generators[1])]), None)
    checks.add("involution-identity", bad is None,
               None if bad is None else f"involution of N{bad} is not rho(r^{bad}s)")

    distinct = len({inv.images for inv in involutions}) == p
    checks.add("involutions-distinct", distinct,
               None if distinct else "cyclic structures collide")

    keys = {e.subgroup.canonical_key() for e in entries}
    checks.add("pairwise-distinct", len(keys) == p + 2,
               None if len(keys) == p + 2 else "duplicate subgroups")

    census = Counter(e.iso_label for e in entries)
    expected_census = Counter({f"D{p}": 2, f"C{2 * p}": p})
    checks.add("iso-census", census == expected_census,
               f"{dict(sorted(census.items()))}")

    return checks


def matches_catalog(p, subgroups):
    """Whether `subgroups` are the catalog(p) structures, as sets of perms."""
    return ({N.canonical_key() for N in subgroups}
            == {e.subgroup.canonical_key() for e in catalog(p)})


def completeness_check_p3():
    """Exhaustive enumeration at p = 3 reproduces the catalog exactly."""
    return matches_catalog(3, enumerate_regular_normalized(dihedral(3)))
