from itertools import combinations

import pytest

from oracle import naive_catalog_names
from psigroups import (
    GroupBuildError,
    build_catalog,
    is_cp2_pairwise,
    make_entry,
    omega_filtration,
    omega_subgroup,
    partitions,
    psi_brute,
    psi_subset,
)
from psigroups.catalog import catalog_names


def test_partitions_of_five():
    assert list(partitions(5)) == [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


def test_partition_counts():
    counts = {k: sum(1 for _ in partitions(k)) for k in range(1, 9)}
    assert counts == {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}


def test_catalog_p3_order27():
    cat = build_catalog([3], 27)
    at_27 = [e.name for e in cat.entries if e.order == 27]
    assert sorted(at_27) == ["C27", "C3*C3*C3", "C9*C3", "H27", "M27"]
    assert len(at_27) == 5


def test_catalog_p2_order8():
    cat = build_catalog([2], 8)
    at_8 = [e.name for e in cat.entries if e.order == 8]
    assert sorted(at_8) == ["C2*C2*C2", "C4*C2", "C8", "D8", "Q8"]


def test_catalog_p2_order2():
    cat = build_catalog([2], 2)
    assert [e.name for e in cat.entries] == ["C2"]


def test_catalog_includes_counterexample_pair_at_256():
    cat = build_catalog([2], 256)
    names = [e.name for e in cat.entries]
    assert "D16*C2*C2*C2*C2" in names
    assert "C4*C4*C4*C4" in names


def test_catalog_names_unique():
    cat = build_catalog([2, 3], 32)
    names = [e.name for e in cat.entries]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("primes", [(2,), (3,), (5,), (7,), *combinations((2, 3, 5, 7), 2)],
                         ids=lambda primes: ",".join(map(str, primes)))
def test_catalog_names_match_the_definition(primes):
    for cap in [*range(1, 301), 343, 625, 729, 1024, 2401, 4096]:
        names = catalog_names(primes, cap)
        assert len(names) == len(set(names)), (primes, cap)
        assert set(names) == set().union(*(naive_catalog_names(p, cap) for p in primes)), (primes, cap)


def test_catalog_rejects_bad_parameters():
    with pytest.raises(GroupBuildError):
        build_catalog([4], 16)
    with pytest.raises(GroupBuildError):
        build_catalog([2], 0)
    with pytest.raises(GroupBuildError):
        build_catalog([2], 10**9)
    # a prime above the table size limit is refused before its primality test
    with pytest.raises(GroupBuildError, match="4099 exceeds table size limit"):
        build_catalog([4099], 16)
    # below the limit the prime is judged before the cap
    with pytest.raises(GroupBuildError, match="4 is not a prime"):
        build_catalog([4], 0)


def test_a_prime_above_the_cap_gives_an_empty_catalog():
    assert build_catalog([4093], 16).entries == ()


def test_cached_values_match_fresh_recomputation():
    cat = build_catalog([3], 27)
    for entry in cat.entries:
        g = entry.group
        assert entry.psi == psi_brute(g)
        assert entry.filtration == omega_filtration(g)
        assert entry.cp2 == is_cp2_pairwise(g)
        assert entry.is_abelian == g.is_abelian
        assert entry.level_psi == tuple(
            psi_subset(g, omega_subgroup(g, i).members)
            for i in range(entry.filtration.m + 1))


def test_make_entry_on_single_group():
    from psigroups import group_from_text

    entry = make_entry(group_from_text("C9*C3"))
    assert entry.psi == 187
    assert entry.prime == 3
    assert entry.exponent == 9
    assert entry.is_abelian
    assert entry.level_psi == (1, 25, 187)
