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


def strongly_connected_components(edges: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to dodge recursion limits."""
    n = len(edges)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work[-1]
            if ei == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while ei < len(edges[v]):
                w = edges[v][ei][0]
                ei += 1
                if index[w] == -1:
                    work[-1] = (v, ei)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


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
    witnesses: dict[tuple[int, int], SymbolSequence]
    diameter: int
    num_components: int

    def witness_json(self, table: CosetTable) -> list[dict]:
        out = []
        for (src, dst), word in sorted(self.witnesses.items()):
            # vertex v is coset v // 2 with sign +1 when v is even
            out.append(
                {
                    "from": [*table.reps[src // 2], -1 if src % 2 else 1],
                    "to": [*table.reps[dst // 2], -1 if dst % 2 else 1],
                    "word": [[d, *table.reps[e]] for d, e in word.entries],
                }
            )
        return out


def check_finitely_irreducible(graph: TransitionGraph) -> IrreducibilityReport:
    """Strong connectivity plus, when it holds, witness words per vertex pair.

    Witness digits are the smallest magnitude realizing each residue
    class, so certificates are deterministic and as short as BFS allows.
    """
    sccs = strongly_connected_components(graph.edges)
    if len(sccs) != 1:
        return IrreducibilityReport(False, {}, -1, len(sccs))
    witnesses: dict[tuple[int, int], SymbolSequence] = {}
    diameter = 0
    for src in range(graph.num_vertices):
        paths = _bfs_paths(graph, src)
        for dst, path in enumerate(paths):
            if path is None:
                raise AssertionError("SCC said connected but BFS disagreed")
            diameter = max(diameter, len(path))
            witnesses[(src, dst)] = SymbolSequence(tuple(path))
    return IrreducibilityReport(True, witnesses, diameter, 1)


def is_admissible(seq: SymbolSequence, table: CosetTable) -> bool:
    """Digit alternation plus tau-consistency of the coset decoration."""
    entries = seq.entries
    for (d1, e1), (d2, e2) in zip(entries, entries[1:]):
        if d1 * d2 >= 0:
            return False
        if table.tau(d1, e1) != e2:
            return False
    return all(d != 0 for d, _ in entries)
