from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym.cosets import (
    CosetTable,
    LevelZero,
    ZeroDigit,
    subgroup_invariants,
)
from modsym.psl2 import MoebiusMatrix, S, translation

# Known invariant values: index and genus for small levels (standard tables).
KNOWN_KAPPA = {1: 1, 2: 3, 3: 4, 4: 6, 5: 6, 6: 12, 7: 8, 8: 12,
               9: 12, 10: 18, 11: 12, 12: 24}
KNOWN_GENUS = {1: 0, 2: 0, 10: 0, 11: 1, 14: 1, 15: 1, 17: 1, 19: 1,
               20: 1, 22: 2, 23: 2, 37: 2}


def lift_to_sl2(c: int, d: int, N: int) -> MoebiusMatrix:
    """Independent oracle: an integer matrix with bottom row = (c, d) mod N."""
    if N == 1:
        return MoebiusMatrix(1, 0, 0, 1)
    c0, d0 = c % N, d % N
    while gcd(c0, d0) != 1:
        d0 += N
    # Bezout: a*d0 - b*c0 = 1
    a, b = _bezout(d0, c0)
    return MoebiusMatrix(a, b, c0, d0)


def _bezout(d0, c0):
    old_r, r = d0, c0
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    # old_s*d0 + old_t*c0 = 1 -> a = old_s, b = -old_t
    return old_s, -old_t


def test_invariants_known_values():
    for N, k in KNOWN_KAPPA.items():
        assert subgroup_invariants(N).kappa == k, N
    for N, g in KNOWN_GENUS.items():
        assert subgroup_invariants(N).genus == g, N


def test_invariants_small_cases():
    inv = subgroup_invariants(11)
    assert (inv.kappa, inv.n2, inv.n3, inv.n_inf, inv.genus) == (12, 0, 0, 2, 1)
    inv = subgroup_invariants(1)
    assert (inv.kappa, inv.n2, inv.n3, inv.n_inf, inv.genus) == (1, 1, 1, 1, 0)


def test_level_guard():
    with pytest.raises(LevelZero):
        subgroup_invariants(0)
    with pytest.raises(LevelZero):
        CosetTable(-3)


def test_table_size_matches_index():
    for N in range(1, 40):
        assert CosetTable(N).size == subgroup_invariants(N).kappa


def test_reps_canonical_and_lex_sorted():
    table = CosetTable(12)
    assert table.reps == sorted(table.reps)
    # every P1 point maps to exactly one rep
    seen = set()
    for c in range(12):
        for d in range(12):
            if gcd(gcd(c, d), 12) == 1:
                seen.add(table.label_of_row(c, d))
    assert seen == set(range(table.size))


def test_label_of_row_rejects_nonpoints():
    table = CosetTable(6)
    with pytest.raises(ValueError):
        table.label_of_row(2, 4)  # gcd(2,4,6) = 2, not a projective point
    with pytest.raises(ValueError):
        table.label_of_row(3, 3)


def test_tau_zero_digit():
    with pytest.raises(ZeroDigit):
        CosetTable(5).tau(0, 0)


def test_tau_rejects_out_of_range_labels():
    """A negative label would wrap around the permutation list."""
    table = CosetTable(11)
    for e in (-1, -table.size, table.size):
        with pytest.raises(ValueError, match=rf"^coset label {e} out of range for level 11$"):
            table.tau(1, e)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=-40, max_value=40))
@settings(max_examples=60)
def test_tau_matches_matrix_action(N, k):
    """tau_k(e) agrees with right multiplication of an actual SL2 lift."""
    if k == 0:
        k = 1
    table = CosetTable(N)
    m = S * translation(k)
    for e in range(table.size):
        lift = lift_to_sl2(*table.reps[e], N)
        assert table.coset_of(lift) == e
        assert table.tau(k, e) == table.coset_of(lift * m)


@given(st.integers(min_value=1, max_value=30))
@settings(max_examples=30)
def test_tau_rows_are_permutations(N):
    """Each residue column of the action permutes the cosets, and tau reads
    the column of its digit's residue, for digits of either sign."""
    table = CosetTable(N)
    action = table.action
    assert action.shape == (table.size, N) and not action.flags.writeable
    for r in range(N):
        assert sorted(action[:, r].tolist()) == list(range(table.size))
    for k in (1, 2, N, N + 3, -1, -N, -2 * N - 5):
        for e in range(table.size):
            assert table.tau(k, e) == action[e, k % N]


def test_tau_builds_no_action():
    """tau works out its one pair; the (kappa, N) action is built only when read."""
    table = CosetTable(60)
    assert table.tau(7, 5) == table.tau(-53, 5)
    assert "action" not in table.__dict__
    assert table.tau(7, 5) == table.action[5, 7]


def test_tau_depends_only_on_residue():
    table = CosetTable(7)
    for e in range(table.size):
        assert table.tau(3, e) == table.tau(10, e) == table.tau(-4, e)


def test_coset_well_defined_under_gamma0():
    """Left multiplication by Gamma_0(N) elements fixes the label."""
    N = 11
    table = CosetTable(N)
    gammas = [translation(1), S * translation(N) * S]
    # S*T^N*S = [[-1,0],[N,-1]], in Gamma_0(N) up to the PSL2 sign
    for e in range(table.size):
        lift = lift_to_sl2(*table.reps[e], N)
        for g in gammas:
            assert table.coset_of(g * lift) == e
