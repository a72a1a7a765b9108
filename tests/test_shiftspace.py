from collections import deque
from fractions import Fraction

import pytest
from edge_oracle import edge_table
from hypothesis import given, settings
from hypothesis import strategies as st

from modsym import shiftspace
from modsym.contfrac import CFInput, SymbolSequence, encode_orbit
from modsym.cosets import CosetTable
from modsym.shiftspace import (
    build_graph,
    check_finitely_irreducible,
    digit_table,
    is_admissible,
    smallest_digit,
)


def deque_paths(edges, source):
    """Shortest edge paths (as (digit, source-coset) letters) from one vertex,
    by a first-in first-out queue over the edge table."""
    paths = [None] * len(edges)
    paths[source] = []
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for dst, digit in edges[v]:
            if paths[dst] is None:
                paths[dst] = paths[v] + [(digit, v // 2)]
                queue.append(dst)
    return paths


def oracle_words(table):
    edges = edge_table(table)
    return {
        (src, dst): SymbolSequence(tuple(path))
        for src in range(len(edges))
        for dst, path in enumerate(deque_paths(edges, src))
    }


def scc_count(edges):
    """Number of strongly connected components, by Kosaraju's two passes."""
    V = len(edges)
    seen, finished = [False] * V, []
    for root in range(V):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(edges[root]))]
        while stack:
            v, out = stack[-1]
            for w, _ in out:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(edges[w])))
                    break
            else:
                stack.pop()
                finished.append(v)
    into = [[] for _ in range(V)]
    for v, row in enumerate(edges):
        for w, _ in row:
            into[w].append(v)
    component, count = [-1] * V, 0
    for root in reversed(finished):
        if component[root] >= 0:
            continue
        component[root] = count
        stack = [root]
        while stack:
            for w in into[stack.pop()]:
                if component[w] < 0:
                    component[w] = count
                    stack.append(w)
        count += 1
    return count


def mask_in_edges(monkeypatch, targets):
    """Substitute an adjacency with every edge into the target vertices deleted."""
    adjacency = shiftspace._adjacency

    def masked(graph):
        A = adjacency(graph)
        A[:, sorted(targets)] = 0.0
        return A

    monkeypatch.setattr(shiftspace, "_adjacency", masked)


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


@pytest.mark.parametrize("N", [1, 2, 6, 11, 25, 60])
def test_graph_view_equals_edge_oracle(N):
    """The successor array and the digit table list the oracle's edges in
    (vertex, residue) order: row 2e + b has digits digit_table(N)[1 - b]."""
    table = CosetTable(N)
    edges = edge_table(table)
    succ = build_graph(table).successors()
    assert succ.shape == (2 * table.size, N)
    for v, row in enumerate(edges):
        assert succ[v].tolist() == [dst for dst, _ in row]
        assert digit_table(N)[1 - v % 2].tolist() == [digit for _, digit in row]


def test_edges_flip_sign_class():
    for src, row in enumerate(edge_table(CosetTable(6))):
        for dst, digit in row:
            # positive digits leave a (-1)-vertex (odd index) and land on a
            # (+1)-vertex (even index); negative digits the other way round
            assert (src % 2 == 1) == (digit > 0)
            assert (dst % 2 == 0) == (digit > 0)


def test_edge_digits_realize_transition():
    table = CosetTable(11)
    for src, row in enumerate(edge_table(table)):
        e = src // 2
        for dst, digit in row:
            assert 2 * table.tau(digit, e) + (digit < 0) == dst


def test_irreducible_small_levels():
    for N in (1, 2, 3, 6, 11):
        graph = build_graph(CosetTable(N))
        report = check_finitely_irreducible(graph)
        assert report.irreducible and report.num_components == 1
        assert len(report.witnesses) == graph.num_vertices**2


def test_negative_control_reducible(monkeypatch):
    """Deleting all edges into one vertex must break strong connectivity."""
    mask_in_edges(monkeypatch, {3})
    report = check_finitely_irreducible(build_graph(CosetTable(2)))
    assert not report.irreducible
    # components {0}, {3} and {1, 2, 4, 5}
    assert report.num_components == 3
    assert report.witnesses == {}


@given(st.sampled_from([2, 6, 11]), st.data())
@settings(max_examples=40, deadline=None)
def test_masked_graphs_match_scc_oracle(N, data):
    """With the in-edges of a random vertex set deleted, irreducibility and the
    component count agree with Kosaraju on the oracle's pruned edge table, and
    a reducible graph has no witnesses."""
    table = CosetTable(N)
    V = 2 * table.size
    targets = data.draw(st.sets(st.integers(0, V - 1), max_size=V))
    pruned = [[(dst, digit) for dst, digit in row if dst not in targets]
              for row in edge_table(table)]
    expect = scc_count(pruned)
    with pytest.MonkeyPatch.context() as monkeypatch:
        mask_in_edges(monkeypatch, targets)
        report = check_finitely_irreducible(build_graph(table))
    assert report.irreducible == (expect == 1)
    assert report.num_components == expect
    if not report.irreducible:
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
    assert word == SymbolSequence(tuple(deque_paths(edge_table(report.graph.table), 5)[17]))


def test_witnesses_equal_eager_build():
    """Keys, order and words match building every source's queue BFS up front."""
    for N in range(1, 21):
        table = CosetTable(N)
        eager = oracle_words(table)
        witnesses = check_finitely_irreducible(build_graph(table)).witnesses
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
    edges = edge_table(table)
    for src in (2 * e, 2 * e + 1, 0, 1, 301, V - 1):
        tree = [report.witnesses[(src, dst)] for dst in range(V)]
        assert tree == [SymbolSequence(tuple(path)) for path in deque_paths(edges, src)]


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
            assert 2 * cur + (last_sign < 0) == dst
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
