"""Finite vertex graph of the coset-decorated shift space.

Vertices are pairs (coset label, sign).  A digit k with sign s and
residue r mod N gives one edge family from (e, -s) to (tau_k(e), s);
the action depends on k only through r and s, so the countable digit
alphabet compresses to 2*kappa*N edge families.  Irreducibility of the
shift space is exactly strong connectivity of this graph, and witness
words certify it constructively.

``TransitionGraph.edges`` is the one table of edge families: the
transfer operator and the grid cylinder sums of ``thermo`` read it too,
keying each family by the magnitude a0 = abs(digit) of its
representative digit, the smallest magnitude in its digit class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .contfrac import SymbolSequence
from .cosets import CosetTable


def smallest_digit(residue: int, sign: int, N: int) -> int:
    """Smallest-magnitude digit of the given sign congruent to residue mod N."""
    r = residue % N
    if sign > 0:
        return r if r > 0 else N
    return r - N


@dataclass
class TransitionGraph:
    """Edge families of the decorated shift, indexed by vertex number.

    Vertex numbering: coset e with sign +1 is 2*e, with sign -1 is
    2*e + 1.  ``edges[v]`` lists (target vertex, representative digit)
    in order of the residue r = 0..N-1; the representative is
    ``smallest_digit(r, sign, N)``.
    """

    table: CosetTable
    edges: list[list[tuple[int, int]]] = field(default_factory=list)

    def __post_init__(self):
        if self.edges:
            return
        N = self.table.level
        self.edges = [[] for _ in range(2 * self.table.size)]
        for e in range(self.table.size):
            for r in range(N):
                row = self.table.tau_row(r)
                for sign in (1, -1):
                    digit = smallest_digit(r, sign, N)
                    src = self.vertex_index(e, -sign)
                    dst = self.vertex_index(row[e], sign)
                    self.edges[src].append((dst, digit))

    @staticmethod
    def vertex_index(coset: int, sign: int) -> int:
        return 2 * coset + (sign < 0)

    @property
    def num_vertices(self) -> int:
        return len(self.edges)

    @property
    def num_edge_families(self) -> int:
        return sum(len(row) for row in self.edges)

    def without_edge(self, src: int, dst: int) -> "TransitionGraph":
        """Copy with every edge family src -> dst removed (negative control)."""
        pruned = [
            [(t, d) for (t, d) in row if not (v == src and t == dst)]
            for v, row in enumerate(self.edges)
        ]
        return TransitionGraph(self.table, pruned)


def build_graph(table: CosetTable) -> TransitionGraph:
    return TransitionGraph(table)


def _reachability(edges: list[list[tuple[int, int]]]) -> tuple[np.ndarray, int]:
    """Boolean reachability matrix R and the number of steps that grew it.

    R[v, w] says w is reachable from v in zero or more steps.  Starting
    from the identity, each step adds the one-edge successors of every
    reached set with a BLAS matmul, until R stops growing; when R is all
    true the step count is the diameter, with d(v, v) = 0.
    """
    n = len(edges)
    A = np.zeros((n, n), dtype=np.float32)
    for v, row in enumerate(edges):
        A[v, [w for w, _ in row]] = 1.0
    R = np.eye(n, dtype=bool)
    steps = 0
    while True:
        grown = R | (R.astype(np.float32) @ A > 0)
        if np.array_equal(grown, R):
            return R, steps
        R = grown
        steps += 1


def strongly_connected_components(edges: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Vertex sets of mutual reachability, one distinct row of R and R^T each."""
    R, _ = _reachability(edges)
    return [np.flatnonzero(row).tolist() for row in np.unique(R & R.T, axis=0)]


def _bfs_paths(graph: TransitionGraph, source: int) -> list[list[tuple[int, int]] | None]:
    """Shortest edge paths (as (digit, source-coset) letters) from one vertex."""
    n = graph.num_vertices
    paths: list[list[tuple[int, int]] | None] = [None] * n
    paths[source] = []
    queue = deque([source])
    while queue:
        v = queue.popleft()
        base = paths[v]
        coset_v = v // 2
        for dst, digit in graph.edges[v]:
            if paths[dst] is None:
                paths[dst] = base + [(digit, coset_v)]
                queue.append(dst)
    return paths


@dataclass
class IrreducibilityReport:
    irreducible: bool
    diameter: int
    num_components: int
    graph: TransitionGraph

    @cached_property
    def witnesses(self) -> dict[tuple[int, int], SymbolSequence]:
        """Shortest witness word per vertex pair, built by BFS on first read.

        Witness digits are the smallest magnitude realizing each residue
        class, so certificates are deterministic and as short as BFS
        allows.  Empty when the graph is reducible.
        """
        if not self.irreducible:
            return {}
        witnesses: dict[tuple[int, int], SymbolSequence] = {}
        for src in range(self.graph.num_vertices):
            for dst, path in enumerate(_bfs_paths(self.graph, src)):
                if path is None:
                    raise AssertionError("reachability said connected but BFS disagreed")
                witnesses[(src, dst)] = SymbolSequence(tuple(path))
        return witnesses

    def witness_json(self) -> list[dict]:
        reps = self.graph.table.reps
        out = []
        for (src, dst), word in sorted(self.witnesses.items()):
            # vertex v is coset v // 2 with sign +1 when v is even
            out.append(
                {
                    "from": [*reps[src // 2], -1 if src % 2 else 1],
                    "to": [*reps[dst // 2], -1 if dst % 2 else 1],
                    "word": [[d, *reps[e]] for d, e in word.entries],
                }
            )
        return out


def check_finitely_irreducible(graph: TransitionGraph) -> IrreducibilityReport:
    """Strong connectivity, diameter and component count from one reachability matrix."""
    R, steps = _reachability(graph.edges)
    if R.all():
        return IrreducibilityReport(True, steps, 1, graph)
    return IrreducibilityReport(False, -1, len(np.unique(R & R.T, axis=0)), graph)


def is_admissible(seq: SymbolSequence, table: CosetTable) -> bool:
    """Digit alternation plus tau-consistency of the coset decoration."""
    entries = seq.entries
    for (d1, e1), (d2, e2) in zip(entries, entries[1:]):
        if d1 * d2 >= 0:
            return False
        if table.tau(d1, e1) != e2:
            return False
    return all(d != 0 for d, _ in entries)
