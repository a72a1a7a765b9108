from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import shiftspace
from modsym.contfrac import CFInput, SymbolSequence, encode_orbit
from modsym.cosets import CosetTable
from modsym.shiftspace import (
    TransitionGraph,
    build_graph,
    check_finitely_irreducible,
    is_admissible,
    smallest_digit,
    strongly_connected_components,
)


def test_smallest_digit():
    assert smallest_digit(3, 1, 7) == 3
    assert smallest_digit(0, 1, 7) == 7
    assert smallest_digit(3, -1, 7) == -4
    assert smallest_digit(0, -1, 7) == -7


def test_graph_shape():
    for N in (1, 2, 6, 11):
        table = CosetTable(N)
        graph = build_graph(table)
        assert graph.num_vertices == 2 * table.size
        assert graph.num_edge_families == 2 * table.size * N


def test_edges_flip_sign_class():
    graph = build_graph(CosetTable(6))
    for src, row in enumerate(graph.edges):
        for dst, digit in row:
            # positive digits leave a (-1)-vertex (odd index) and land on a
            # (+1)-vertex (even index); negative digits the other way round
            assert (src % 2 == 1) == (digit > 0)
            assert (dst % 2 == 0) == (digit > 0)


def test_edge_digits_realize_transition():
    table = CosetTable(11)
    graph = build_graph(table)
    for src, row in enumerate(graph.edges):
        e = src // 2
        for dst, digit in row:
            assert TransitionGraph.vertex_index(table.tau(digit, e), -1 if digit < 0 else 1) == dst


def test_tarjan_on_known_graph():
    # two 2-cycles joined one-way: components {0,1} and {2,3}
    edges = [[(1, 0)], [(0, 0), (2, 0)], [(3, 0)], [(2, 0)]]
    sccs = strongly_connected_components(edges)
    assert sorted(sorted(c) for c in sccs) == [[0, 1], [2, 3]]


def test_irreducible_small_levels():
    for N in (1, 2, 3, 6, 11):
        graph = build_graph(CosetTable(N))
        report = check_finitely_irreducible(graph)
        assert report.irreducible and report.num_components == 1
        assert len(report.witnesses) == graph.num_vertices**2


def test_negative_control_reducible():
    """Deleting all edges into one vertex must break strong connectivity."""
    graph = build_graph(CosetTable(2))
    target = 3
    pruned = graph
    for src in range(graph.num_vertices):
        pruned = pruned.without_edge(src, target)
    report = check_finitely_irreducible(pruned)
    assert not report.irreducible
    # components {0}, {3} and {1, 2, 4, 5}
    assert report.num_components == 3
    assert report.witnesses == {}


def test_irreducibility_without_witness_bfs(monkeypatch):
    """Connectivity and diameter come without any BFS; witnesses are built on read."""
    def no_bfs(graph, source):
        raise RuntimeError("witness BFS ran")

    monkeypatch.setattr(shiftspace, "_bfs_paths", no_bfs)
    report = check_finitely_irreducible(build_graph(CosetTable(11)))
    assert report.irreducible and report.diameter == 4
    with pytest.raises(RuntimeError, match="witness BFS ran"):
        report.witnesses


def test_diameter_is_longest_witness():
    for N in (1, 2, 3, 6, 11, 25):
        report = check_finitely_irreducible(build_graph(CosetTable(N)))
        assert report.diameter == max(len(w) for w in report.witnesses.values())


def test_witness_replay(level11):
    table = level11.table
    graph = build_graph(table)
    report = check_finitely_irreducible(graph)
    for (src, dst), word in report.witnesses.items():
        assert is_admissible(word, table)
        e, sign = src // 2, 1 if src % 2 == 0 else -1
        cur, expect_sign = e, -sign
        for d, we in word.entries:
            assert we == cur
            assert (d > 0) == (expect_sign > 0)
            cur = table.tau(d, cur)
            expect_sign = -expect_sign
        if word.entries:
            last_sign = 1 if word.entries[-1][0] > 0 else -1
            assert TransitionGraph.vertex_index(cur, last_sign) == dst
        else:
            assert src == dst


def test_witness_json_format(level2):
    table = level2.table
    report = check_finitely_irreducible(build_graph(table))
    payload = report.witness_json()
    assert len(payload) == len(report.witnesses)
    entry = payload[0]
    assert set(entry) == {"from", "to", "word"}
    assert len(entry["from"]) == 3 and len(entry["to"]) == 3


def test_is_admissible_rejects():
    table = CosetTable(11)
    ok = encode_orbit(table, CFInput(sign=1, period=(2, 3)), 0, 8)
    assert is_admissible(ok, table)
    bad_sign = SymbolSequence(((1, 0), (2, table.tau(1, 0))))
    assert not is_admissible(bad_sign, table)
    bad_coset = SymbolSequence(((1, 0), (-1, (table.tau(1, 0) + 1) % table.size)))
    assert not is_admissible(bad_coset, table)


@given(st.integers(min_value=1, max_value=25))
@settings(max_examples=25, deadline=None)
def test_encoded_orbits_are_admissible(N):
    table = CosetTable(N)
    x = CFInput(rational=Fraction(17, 39))
    for e1 in range(0, table.size, max(1, table.size // 4)):
        seq = encode_orbit(table, x, e1, 6)
        assert is_admissible(seq, table)
