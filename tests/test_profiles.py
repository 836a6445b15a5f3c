import random

import pytest

from severi.profiles import (
    Profile,
    complement,
    partition_count,
    partitions,
    remove_one_entry,
    subprofiles,
)


def test_sum_is_multiset_union():
    assert Profile.of(2, 1) + Profile.of(3) == Profile.of(3, 2, 1)
    assert Profile.of(1) + Profile() == Profile.of(1)
    assert Profile.ones(2) + Profile.ones(3) == Profile.ones(5)


def test_sum_with_an_empty_side_is_the_other_operand():
    rng = random.Random(12)
    for _ in range(50):
        p = Profile(tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 6))))
        assert Profile() + p == p == p + Profile()
        if p.entries:
            assert Profile() + p is p and p + Profile() is p
        for total in (Profile() + p, p + Profile(), p + p):
            assert list(total.entries) == sorted(total.entries, reverse=True)


def test_equality_is_multiset_equality():
    assert Profile.of(1, 2, 1) == Profile.of(2, 1, 1)
    assert Profile.of(2) != Profile.of(1, 1)


def test_positive_entries_enforced():
    with pytest.raises(ValueError):
        Profile.of(0)
    with pytest.raises(ValueError):
        Profile.of(2, -1)


@pytest.mark.parametrize(
    "make,message",
    [(lambda: Profile.ones(-1), "1^k needs k >= 0"), (lambda: partitions(-1), "partitions need m >= 0")],
    ids=["ones", "partitions"],
)
def test_negative_sizes_are_refused(make, message):
    with pytest.raises(ValueError) as refused:
        make()
    assert str(refused.value) == message


def test_size_and_multiplicity():
    p = Profile.of(2, 1, 1)
    assert p.size == 3
    assert p.multiplicity == 4
    assert Profile().size == 0
    assert Profile().multiplicity == 0
    assert Profile.ones(7).size == 7
    assert Profile.ones(7).multiplicity == 7


def test_subprofiles_small():
    subs = set(subprofiles(Profile.of(2, 1)))
    assert subs == {Profile(), Profile.of(1), Profile.of(2), Profile.of(2, 1)}
    # brute force over index subsets then dedup gives the same set for (1,1)
    assert set(subprofiles(Profile.of(1, 1))) == {
        Profile(),
        Profile.of(1),
        Profile.of(1, 1),
    }
    assert set(subprofiles(Profile())) == {Profile()}


def test_complement_roundtrip():
    p = Profile.of(3, 2, 2, 1)
    for s in subprofiles(p):
        assert s + complement(p, s) == p
    with pytest.raises(ValueError):
        complement(Profile.of(2), Profile.of(1))


def test_remove_one_entry():
    assert set(remove_one_entry(Profile.of(2, 1, 1))) == {
        Profile.of(1, 1),
        Profile.of(2, 1),
    }
    assert set(remove_one_entry(Profile.of(3))) == {Profile()}
    assert set(remove_one_entry(Profile.ones(3))) == {Profile.ones(2)}
    with pytest.raises(ValueError):
        remove_one_entry(Profile())


def test_remove_one_entry_results_are_subprofiles():
    p = Profile.of(4, 2, 2, 1)
    for q in remove_one_entry(p):
        assert q.size == p.size - 1
        assert q in subprofiles(p)


def test_partitions_basics():
    assert partitions(0) == (Profile(),)
    assert partitions(1) == (Profile.of(1),)
    assert len(partitions(4)) == 5


def _partition_count_oracle(n: int) -> int:
    # p(n, k): partitions of n into parts <= k
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n]


def test_partition_count_matches_recursive_oracle():
    for m in range(21):
        parts = partitions(m)
        assert len(parts) == _partition_count_oracle(m)
        assert len(set(parts)) == len(parts)
        assert all(p.multiplicity == m for p in parts)


def test_capped_partition_count_matches_oracle():
    for m in range(80):
        count = _partition_count_oracle(m)
        for cap in (0, 1, 7, 1000, count - 1, count, 10**30):
            assert partition_count(m, cap) == min(count, cap + 1)
    # past the cap, the count never reaches m
    assert partition_count(10**15, 100_000) == 100_001
    with pytest.raises(ValueError):
        partition_count(-1, 10)


def test_additivity_properties():
    rng = random.Random(11)
    for _ in range(200):
        a = Profile(tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 6))))
        b = Profile(tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 6))))
        assert (a + b).multiplicity == a.multiplicity + b.multiplicity
        assert (a + b).size == a.size + b.size


def test_json_is_sorted_descending():
    assert Profile.of(1, 3, 2).to_json() == [3, 2, 1]
