from fractions import Fraction

import numpy as np
import pytest

from modsym.cosets import CosetTable
from modsym.psl2 import S
from modsym.homology import (
    ST,
    ST2,
    _symbol_action,
    build_homology,
    classes_json,
    cusp_orbits,
    cuspidal_basis,
    manin_presentation,
    symbol_class,
)
from modsym.spectrum import coset_cycle_word, limiting_symbol_periodic


# --- Fraction row-reduction oracle ------------------------------------------
# The presentation and the cuspidal kernel by plain RREF over the rationals:
# an independent oracle for the spanning forests of modsym.homology.


def _rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns nonzero rows and pivot columns."""
    rows = [row[:] for row in rows if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _rref_presentation(table):
    """(pivots, free_cols, expressor) of the Manin relations by RREF."""
    n = table.size
    act_s = _symbol_action(table, S)
    act_st = _symbol_action(table, ST)
    act_st2 = _symbol_action(table, ST2)

    rows: list[list[Fraction]] = []
    zero = Fraction(0)
    seen = set()
    for e in range(n):
        pair = tuple(sorted((e, act_s[e])))
        if pair not in seen:
            seen.add(pair)
            row = [zero] * n
            row[e] += 1
            row[act_s[e]] += 1
            rows.append(row)
        triple = tuple(sorted((e, act_st[e], act_st2[e])))
        if triple not in seen:
            seen.add(triple)
            row = [zero] * n
            row[e] += 1
            row[act_st[e]] += 1
            row[act_st2[e]] += 1
            rows.append(row)

    reduced, pivots = _rref(rows, n)
    free_cols = [c for c in range(n) if c not in set(pivots)]
    col_pos = {c: i for i, c in enumerate(free_cols)}

    expressor: list[list[Fraction]] = []
    for g in range(n):
        coords = [zero] * len(free_cols)
        if g in col_pos:
            coords[col_pos[g]] = Fraction(1)
        else:
            r = pivots.index(g)
            # pivot generator = -sum of free-column entries of its row
            for c in free_cols:
                coords[col_pos[c]] = -reduced[r][c]
        expressor.append(coords)
    return pivots, free_cols, expressor


def _rref_cuspidal(free_cols, cusps):
    """(projector_cols, kernel_basis) of the boundary map by RREF."""
    qdim = len(free_cols)
    zero = Fraction(0)
    boundary_cols: list[list[Fraction]] = [[zero] * qdim for _ in range(cusps.num_orbits)]
    for j, g in enumerate(free_cols):
        boundary_cols[cusps.cusp_of_zero[g]][j] += 1
        boundary_cols[cusps.cusp_of_infinity[g]][j] -= 1

    reduced, pivots = _rref(boundary_cols, qdim)
    free = [c for c in range(qdim) if c not in set(pivots)]
    kernel = []
    for f in free:
        vec = [zero] * qdim
        vec[f] = Fraction(1)
        for r, p in enumerate(pivots):
            vec[p] = -reduced[r][f]
        kernel.append(vec)
    return free, kernel


def _add(vecs):
    out = [Fraction(0)] * len(vecs[0])
    for v in vecs:
        for i, c in enumerate(v):
            out[i] += c
    return out


def test_rref_simple():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    reduced, pivots = _rref(rows, 2)
    assert pivots == [0]
    assert reduced == [[Fraction(1), Fraction(2)]]


@pytest.mark.parametrize("levels", [range(1, 61), (97, 100), (150,), (199,)],
                         ids=["1-60", "97,100", "150", "199"])
def test_forests_match_rref_oracle(levels):
    for N in levels:
        table = CosetTable(N)
        pres = manin_presentation(table)
        pivots, free_cols, expressor = _rref_presentation(table)
        assert pres.pivots == pivots, N
        assert pres.free_cols == free_cols, N
        for g in range(table.size):
            assert pres.expressor[g] == expressor[g], (N, g)

        cusps = cusp_orbits(table)
        cuspidal = cuspidal_basis(pres, cusps)
        projector_cols, kernel = _rref_cuspidal(free_cols, cusps)
        assert cuspidal.projector_cols == projector_cols, N
        assert cuspidal.kernel_basis == kernel, N

        classes = [tuple(expressor[e][c] for c in projector_cols) for e in range(table.size)]
        assert build_homology(table).classes == classes, N


def test_presentation_dimensions_small():
    for N in (1, 2, 3, 5, 6, 11, 14, 37):
        table = CosetTable(N)
        pres = manin_presentation(table)
        inv = table.invariants
        assert pres.dimension == 2 * inv.genus + inv.n_inf - 1


def test_relations_vanish_in_quotient():
    """2-term and 3-term residuals are zero for every generator."""
    for N in (2, 6, 11):
        table = CosetTable(N)
        pres = manin_presentation(table)
        act_s = _symbol_action(table, S)
        act_st = _symbol_action(table, ST)
        act_st2 = _symbol_action(table, ST2)
        for e in range(table.size):
            two = _add([pres.class_of(e), pres.class_of(act_s[e])])
            assert all(c == 0 for c in two)
            three = _add(
                [pres.class_of(e), pres.class_of(act_st[e]), pres.class_of(act_st2[e])]
            )
            assert all(c == 0 for c in three)


def test_cusp_orbit_counts():
    for N in (1, 2, 6, 11, 25, 49):
        table = CosetTable(N)
        cusps = cusp_orbits(table)
        assert cusps.num_orbits == table.invariants.n_inf


def test_cuspidal_dimension_and_boundary(level11):
    data = level11.homology
    inv = data.table.invariants
    assert data.cuspidal.dimension == 2 * inv.genus == 2
    # every kernel vector has zero boundary: sum of (cusp0 - cuspInf) weights
    cusps = data.cusps
    pres = data.presentation
    for vec in data.cuspidal.kernel_basis:
        bnd = [Fraction(0)] * cusps.num_orbits
        for j, g in enumerate(pres.free_cols):
            bnd[cusps.cusp_of_zero[g]] += vec[j]
            bnd[cusps.cusp_of_infinity[g]] -= vec[j]
        assert all(c == 0 for c in bnd)


def test_projection_lands_in_kernel(level11):
    """Reconstruction: projected class, expanded in the kernel basis, differs
    from the original quotient class only by a boundary direction."""
    data = level11.homology
    pres, cusp = data.presentation, data.cuspidal
    for e in range(data.table.size):
        coords = symbol_class(data, e)
        recon = [Fraction(0)] * pres.dimension
        for coef, basis_vec in zip(coords, cusp.kernel_basis):
            for i, c in enumerate(basis_vec):
                recon[i] += coef * c
        # free coordinates of the reconstruction match the projection exactly
        assert cusp.project(recon) == coords


def test_class_sum_vanishes():
    for N in (2, 6, 11, 14):
        data = build_homology(CosetTable(N))
        if data.dimension == 0:
            continue
        total = _add([list(v) for v in data.classes])
        assert all(c == 0 for c in total)


def test_determinism(level11):
    again = build_homology(CosetTable(11))
    assert again.classes == level11.homology.classes


def test_classes_json(level11):
    payload = classes_json(level11.homology)
    assert payload["N"] == 11 and payload["dimension"] == 2
    assert len(payload["classes"]) == 12
    assert all(len(v) == 2 for v in payload["classes"])


# Regression fixture: exact classes at N=11, recorded after the first verified
# run (class-sum, relation, boundary and telescoping checks all green).
N11_CLASSES = [
    (0, 0), (0, 0), (0, 0), (0, 1), (-1, 1), (-1, 0),
    (0, -1), (0, -1), (1, -1), (1, 0), (0, 1), (0, 0),
]


def test_n11_regression(level11):
    data = level11.homology
    assert data.classes == N11_CLASSES
    # exact coordinates are Python ints, in the classes and in the
    # periodic-symbol numerators summed from them
    periodic = limiting_symbol_periodic(level11, coset_cycle_word(level11, 0))
    assert all(type(c) is int for vec in data.classes for c in vec)
    assert all(type(c) is int for c in periodic.numerator)
    # identity coset carries the zero class
    ident = data.table.identity_label()
    assert symbol_class(data, ident) == (Fraction(0), Fraction(0))
    # golden-cycle numerator fixture from the verified run
    cycle_cosets = [0, 11, 3, 5, 10, 6, 4, 7, 11, 1]
    total = _add([list(symbol_class(data, e)) for e in cycle_cosets])
    assert total == [Fraction(-2), Fraction(1)]


def test_nonsquarefree_levels():
    for N in (4, 8, 9, 12, 16, 18, 27, 45, 50):
        data = build_homology(CosetTable(N))
        inv = data.table.invariants
        assert data.presentation.dimension == 2 * inv.genus + inv.n_inf - 1
        assert data.cuspidal.dimension == 2 * inv.genus


def test_large_level_classes_are_signs():
    """N=420 (kappa 1152, 2g 170): both dimension checks pass, every class and
    expressor row is a -1/0/1 integer vector, the relations vanish on both and
    the classes sum to zero."""
    table = CosetTable(420)
    data = build_homology(table)
    inv = table.invariants
    assert data.presentation.dimension == 2 * inv.genus + inv.n_inf - 1
    assert data.dimension == 2 * inv.genus == 170
    act_s = _symbol_action(table, S)
    act_st = _symbol_action(table, ST)
    act_st2 = _symbol_action(table, ST2)
    for vecs in (data.presentation.expressor, data.classes):
        assert all(type(c) is int and c in (-1, 0, 1) for v in vecs for c in v)
        m = np.array([[int(c) for c in v] for v in vecs])
        assert not (m + m[act_s]).any()
        assert not (m + m[act_st] + m[act_st2]).any()
    assert not np.array([[int(c) for c in v] for v in data.classes]).sum(axis=0).any()
