"""Finite vertex graph of the coset-decorated shift space.

Vertices are pairs (coset label, sign).  A digit k with sign s and
residue r mod N gives one edge family from (e, -s) to (tau_k(e), s);
the action depends on k only through r and s, so the countable digit
alphabet compresses to 2*kappa*N edge families.  Irreducibility of the
shift space is exactly strong connectivity of this graph, and witness
words certify it constructively.

``smallest_digit`` is the one rule from (residue, sign) to digit class.
The vertex graph serves the exact layer; ``thermo`` reads the same edge
families as the digit action, tau_r from the coset table and the class
of each (residue, sign), without building the graph.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, product

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

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The edge table in compressed rows: ``edges[v]`` is ``targets[i]``
        with ``digits[i]`` for i in ``indptr[v]:indptr[v + 1]``."""
        indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum([len(row) for row in self.edges], out=indptr[1:])
        flat = np.fromiter(chain.from_iterable(chain.from_iterable(self.edges)),
                           dtype=np.int64, count=2 * int(indptr[-1]))
        return indptr, flat[0::2], flat[1::2]

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


def _bfs_paths(graph: TransitionGraph, source: int) -> tuple[list[int], list[int]]:
    """Breadth-first tree from one vertex: parent vertex and digit of the
    tree edge into each vertex.

    The source is its own parent; an unreached vertex has parent -1.
    Grown one level at a time over the graph's edge arrays; a vertex
    takes the first edge that reaches it in (frontier order, row order),
    the order a first-in first-out queue would visit them.
    """
    indptr, targets, digits = graph.edge_arrays
    parent = np.full(graph.num_vertices, -1)
    digit = np.zeros(graph.num_vertices, dtype=np.int64)
    parent[source] = source
    frontier = np.array([source])
    while frontier.size:
        counts = indptr[frontier + 1] - indptr[frontier]
        # positions of the frontier's edges, row after row
        pos = np.repeat(indptr[frontier] - np.cumsum(counts) + counts, counts) \
            + np.arange(counts.sum())
        src = np.repeat(frontier, counts)
        fresh = parent[targets[pos]] < 0
        pos, src = pos[fresh], src[fresh]
        # the first edge into each newly reached vertex, in discovery order
        first = np.sort(np.unique(targets[pos], return_index=True)[1])
        frontier = targets[pos[first]]
        parent[frontier] = src[first]
        digit[frontier] = digits[pos[first]]
    return parent.tolist(), digit.tolist()


class WitnessWords(Mapping):
    """Shortest witness word for every (src, dst) vertex pair of a graph.

    Witness digits are the smallest magnitude realizing each residue
    class, so certificates are deterministic and as short as BFS allows.
    One BFS tree per source, grown on the first read of a pair from that
    source and kept; each read walks the tree back from dst.  The length
    and the keys, in (src, dst) order, need no BFS.  An entry may be
    overwritten but the key set is fixed.
    """

    def __init__(self, graph: TransitionGraph):
        self.graph = graph
        self._trees: dict[int, tuple[list[int], list[int]]] = {}
        self._assigned: dict[tuple[int, int], SymbolSequence] = {}

    def _pair(self, key) -> tuple[int, int]:
        n = self.graph.num_vertices
        if isinstance(key, tuple) and len(key) == 2 and 0 <= key[0] < n and 0 <= key[1] < n:
            return key
        raise KeyError(key)

    def _tree(self, src: int) -> tuple[list[int], list[int]]:
        if src not in self._trees:
            parent, digit = _bfs_paths(self.graph, src)
            if min(parent) < 0:
                raise AssertionError("reachability said connected but BFS disagreed")
            self._trees[src] = parent, digit
        return self._trees[src]

    def __getitem__(self, key) -> SymbolSequence:
        src, dst = self._pair(key)
        if key in self._assigned:
            return self._assigned[key]
        parent, digit = self._tree(src)
        letters = []
        while dst != src:
            v = parent[dst]
            letters.append((digit[dst], v // 2))
            dst = v
        return SymbolSequence(tuple(reversed(letters)))

    def __setitem__(self, key, word: SymbolSequence) -> None:
        self._assigned[self._pair(key)] = word

    def __len__(self) -> int:
        return self.graph.num_vertices ** 2

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return product(range(self.graph.num_vertices), repeat=2)


@dataclass
class IrreducibilityReport:
    irreducible: bool
    diameter: int
    num_components: int
    graph: TransitionGraph

    @cached_property
    def witnesses(self) -> Mapping[tuple[int, int], SymbolSequence]:
        """Witness words of every vertex pair; empty when the graph is reducible."""
        if not self.irreducible:
            return {}
        return WitnessWords(self.graph)

    def witness_json(self) -> list[dict]:
        reps = self.graph.table.reps
        out = []
        for (src, dst), word in self.witnesses.items():
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
