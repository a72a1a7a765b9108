import copy
from collections import deque
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
)


def deque_paths(graph, source):
    """Shortest edge paths (as (digit, source-coset) letters) from one vertex,
    by a first-in first-out queue over the edge table."""
    paths = [None] * graph.num_vertices
    paths[source] = []
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for dst, digit in graph.edges[v]:
            if paths[dst] is None:
                paths[dst] = paths[v] + [(digit, v // 2)]
                queue.append(dst)
    return paths


def oracle_words(graph):
    return {
        (src, dst): SymbolSequence(tuple(path))
        for src in range(graph.num_vertices)
        for dst, path in enumerate(deque_paths(graph, src))
    }


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
    pruned = copy.copy(graph)
    pruned.edges = [[(dst, digit) for dst, digit in row if dst != target]
                    for row in graph.edges]
    report = check_finitely_irreducible(pruned)
    assert not report.irreducible
    # components {0}, {3} and {1, 2, 4, 5}
    assert report.num_components == 3
    assert report.witnesses == {}


def test_irreducibility_without_witness_bfs(monkeypatch):
    """Connectivity, diameter, the witness mapping and its length come without
    any BFS; reading one entry runs it."""
    def no_bfs(graph, source):
        raise RuntimeError("witness BFS ran")

    monkeypatch.setattr(shiftspace, "_bfs_paths", no_bfs)
    report = check_finitely_irreducible(build_graph(CosetTable(11)))
    assert report.irreducible and report.diameter == 4
    witnesses = report.witnesses
    assert len(witnesses) == report.graph.num_vertices**2
    with pytest.raises(RuntimeError, match="witness BFS ran"):
        witnesses[(0, 1)]

    def tree_missing_vertices(graph, source):
        parent = [-1] * graph.num_vertices
        parent[source] = source
        return parent, [0] * graph.num_vertices

    monkeypatch.setattr(shiftspace, "_bfs_paths", tree_missing_vertices)
    with pytest.raises(AssertionError, match="BFS disagreed"):
        witnesses[(2, 0)]


def test_witness_read_runs_one_bfs(monkeypatch):
    calls = []

    def counted(graph, source):
        calls.append(source)
        return bfs(graph, source)

    bfs = shiftspace._bfs_paths
    monkeypatch.setattr(shiftspace, "_bfs_paths", counted)
    report = check_finitely_irreducible(build_graph(CosetTable(150)))
    word = report.witnesses[(5, 17)]
    assert calls == [5]
    assert report.witnesses[(5, 400)] is not None and calls == [5]
    assert word == SymbolSequence(tuple(deque_paths(report.graph, 5)[17]))


def test_witnesses_equal_eager_build():
    """Keys, order and words match building every source's queue BFS up front."""
    for N in range(1, 21):
        graph = build_graph(CosetTable(N))
        eager = oracle_words(graph)
        witnesses = check_finitely_irreducible(graph).witnesses
        assert list(witnesses) == list(eager)
        assert dict(witnesses) == eager


def test_witness_trees_with_repeated_targets():
    """At N = 150 (composite) the coset (1:0) sends every residue to (0:1),
    so its rows repeat one target N times; whole trees of both its vertices
    and a few others match the queue BFS over the edge table."""
    table = CosetTable(150)
    graph = build_graph(table)
    e = table.label_of_row(1, 0)
    assert set(table.action[e]) == {table.label_of_row(0, 1)}
    report = check_finitely_irreducible(graph)
    V = graph.num_vertices
    for src in (2 * e, 2 * e + 1, 0, 1, 301, V - 1):
        tree = [report.witnesses[(src, dst)] for dst in range(V)]
        assert tree == [SymbolSequence(tuple(path)) for path in deque_paths(graph, src)]


def test_witness_assignment_is_kept():
    report = check_finitely_irreducible(build_graph(CosetTable(6)))
    word = SymbolSequence(((1, 0),))
    report.witnesses[(3, 7)] = word
    assert report.witnesses.get((3, 7)) is word
    assert dict(report.witnesses.items())[(3, 7)] is word
    V = report.graph.num_vertices
    assert report.witnesses.get((V, 0)) is None and (0, V) not in report.witnesses
    with pytest.raises(KeyError):
        report.witnesses[(-1, 0)] = word


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
