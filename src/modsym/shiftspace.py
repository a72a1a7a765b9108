"""Finite vertex graph of the coset-decorated shift space.

Vertices are pairs (coset label, sign).  A digit k with sign s and
residue r mod N gives one edge family from (e, -s) to (tau_k(e), s);
the action depends on k only through r and s, so the countable digit
alphabet compresses to 2*kappa*N edge families.  Irreducibility of the
shift space is exactly strong connectivity of this graph, and witness
words certify it constructively.

``smallest_digit`` is the one rule from (residue, sign) to digit class,
laid out by residue in ``digit_table``.  The edges, the witness trees and
``thermo`` (which never builds the graph) all read tau_r(e) from the one
table of it, ``CosetTable.action``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .contfrac import SymbolSequence
from .cosets import CosetTable


def smallest_digit(residue: int, sign: int, N: int) -> int:
    """Smallest-magnitude digit of the given sign congruent to residue mod N."""
    r = residue % N
    if sign > 0:
        return r if r > 0 else N
    return r - N


@lru_cache(maxsize=8)
def digit_table(N: int) -> np.ndarray:
    """Read-only (2, N) representative digits: ``digit_table(N)[k, r]`` is
    ``smallest_digit(r, s, N)`` with s = +1 for k = 0 and -1 for k = 1."""
    digits = np.array([[smallest_digit(r, s, N) for r in range(N)] for s in (1, -1)])
    digits.flags.writeable = False
    return digits


@dataclass
class TransitionGraph:
    """Edge families of the decorated shift, indexed by vertex number.

    Vertex numbering: coset e with sign +1 is 2*e, with sign -1 is
    2*e + 1.  ``edges[v]`` lists (target vertex, representative digit)
    in order of the residue r = 0..N-1; the representative is
    ``smallest_digit(r, sign, N)``, the target from ``table.action``.
    """

    table: CosetTable
    edges: list[list[tuple[int, int]]] = field(init=False)

    def __post_init__(self):
        N = self.table.level
        action = self.table.action.tolist()
        self.edges = [[] for _ in range(2 * self.table.size)]
        for e in range(self.table.size):
            row = action[e]
            for r in range(N):
                for sign in (1, -1):
                    digit = smallest_digit(r, sign, N)
                    src = self.vertex_index(e, -sign)
                    dst = self.vertex_index(row[r], sign)
                    self.edges[src].append((dst, digit))

    @staticmethod
    def vertex_index(coset: int, sign: int) -> int:
        return 2 * coset + (sign < 0)

    @property
    def num_vertices(self) -> int:
        return 2 * self.table.size

    @property
    def num_edge_families(self) -> int:
        return self.num_vertices * self.table.level


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
    Grown one level at a time from the coset table's action: edges flip
    the sign, so a level's vertices 2e + b share b, and the residue-r edge
    of each ends at 2 tau_r(e) + k with digit ``digit_table(N)[k, r]``,
    k = 1 - b.  A vertex takes the first edge that reaches it in (frontier,
    residue) order, the order a first-in first-out queue would visit them.
    """
    action, N = graph.table.action, graph.table.level
    digits = digit_table(N)
    parent = np.full(graph.num_vertices, -1)
    digit = np.zeros(graph.num_vertices, dtype=np.int64)
    parent[source] = source
    frontier = np.array([source])
    k = 1 - source % 2
    while frontier.size:
        targets = (2 * action[frontier // 2] + k).ravel()
        order = np.arange(targets.size)
        # the first edge into each vertex, kept where the vertex is new
        first = np.full(graph.num_vertices, targets.size)
        np.minimum.at(first, targets, order)
        pos = np.flatnonzero((first[targets] == order) & (parent[targets] < 0))
        src = frontier[pos // N]
        frontier = targets[pos]
        parent[frontier] = src
        digit[frontier] = digits[k, pos % N]
        k = 1 - k
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
            # reachability ran on the edge table and the BFS on the action
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
