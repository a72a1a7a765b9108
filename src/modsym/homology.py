"""Exact homology of the level-N modular curve via coset symbols.

One generator per coset label, subject to the classical two-term
(x + x.S = 0) and three-term (x + x.(ST) + x.(ST)^2 = 0) relations; the
quotient is the relative homology of the compactified curve, of
dimension 2g + n_inf - 1.  The boundary map sends a generator to the
difference of its two cusps, and its kernel is the cuspidal subspace of
dimension 2g.

Both matrices are oriented incidence matrices of graphs: the relations
of the trivalent Farey quotient graph (orbits as vertices, labels as
edges) and the boundary map of a graph on the cusps (Kulkarni, Amer. J.
Math. 113, 1991).  So each reduction is a greedy spanning forest, with
no row reduction, and every coordinate is the int -1, 0 or 1.
``classes_json`` writes each one as the fraction [n, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

from .cosets import CosetTable
from .psl2 import S, T

ST = S * T
ST2 = ST * ST


class DimensionMismatch(AssertionError):
    """A computed dimension disagrees with the closed-form invariant."""


def _spanning_forest(
    ends: list[tuple[int, int]], num_vertices: int
) -> tuple[list[int], dict[int, dict[int, int]]]:
    """Kruskal in edge order on the oriented edges ``ends[i] = (tail, head)``.

    Returns the tree edges and, for every other edge c in order, its
    fundamental cycle {edge: +-1}: 1 at c, then the tree path from
    head(c) back to tail(c), where an edge crossed from its tail to its
    head counts +1 and one crossed the other way -1.  Reducing the
    oriented incidence matrix (-1 at the tail, +1 at the head) in column
    order gives the tree edges as pivot columns and these cycles as the
    standard kernel basis.
    """
    root = list(range(num_vertices))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree: list[int] = []
    others: list[int] = []
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(num_vertices)]
    for i, (u, v) in enumerate(ends):
        ru, rv = find(u), find(v)
        if ru == rv:
            others.append(i)
            continue
        root[ru] = rv
        tree.append(i)
        adjacent[u].append((v, i))
        adjacent[v].append((u, i))

    # root each tree once: parent vertex, edge to the parent, depth
    parent = [-1] * num_vertices
    up_edge = [-1] * num_vertices
    depth = [-1] * num_vertices
    for r in range(num_vertices):
        if depth[r] >= 0:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            x = stack.pop()
            for y, i in adjacent[x]:
                if depth[y] < 0:
                    parent[y], up_edge[y], depth[y] = x, i, depth[x] + 1
                    stack.append(y)

    cycles: dict[int, dict[int, int]] = {}
    for c in others:
        tail, head = ends[c]
        cycle = {c: 1}
        # the walk runs a = head ... b = tail; climb the deeper end until they meet
        a, b = head, tail
        while a != b:
            if depth[a] >= depth[b]:
                i = up_edge[a]
                a = parent[a]
                cycle[i] = 1 if ends[i][1] == a else -1
            else:
                i = up_edge[b]
                cycle[i] = 1 if ends[i][1] == b else -1
                b = parent[b]
        cycles[c] = cycle
    return tree, cycles


def _dense(cycle: dict[int, int], size: int) -> list[int]:
    vec = [0] * size
    for i, sign in cycle.items():
        vec[i] = sign
    return vec


@dataclass
class RelativePresentation:
    """Quotient of the free module on coset symbols by the Manin relations."""

    table: CosetTable
    pivots: list[int]
    free_cols: list[int]
    # expressor[g] = coordinates of generator g in the free-column basis
    expressor: list[list[int]]

    @property
    def dimension(self) -> int:
        return len(self.free_cols)

    def class_of(self, e: int) -> list[int]:
        return self.expressor[e]


def _symbol_action(table: CosetTable, m) -> list[int]:
    """Permutation-with-matrix right action e -> label(rep(e) * m)."""
    return [table.right_translate(e, m) for e in range(table.size)]


def manin_presentation(table: CosetTable) -> RelativePresentation:
    """Quotient by the Manin relations, read off a spanning forest.

    Label e lies in exactly one 2-term relation (its S-orbit) and one
    3-term relation (its ST-orbit).  Negating the 2-term rows turns the
    relation matrix into the oriented incidence matrix of the bipartite
    graph whose vertices are the orbits and whose edges are the labels,
    from its S-orbit to its ST-orbit.  Tree labels are the pivots, and
    the expressor column of a free label is its fundamental cycle.
    """
    n = table.size
    act_s = _symbol_action(table, S)
    act_st = _symbol_action(table, ST)
    act_st2 = _symbol_action(table, ST2)

    # each orbit is named by its smallest label; ST-orbits are offset by n
    ends = [(min(e, act_s[e]), n + min(e, act_st[e], act_st2[e])) for e in range(n)]
    pivots, cycles = _spanning_forest(ends, 2 * n)
    columns = [_dense(cycle, n) for cycle in cycles.values()]
    expressor = [[col[g] for col in columns] for g in range(n)]
    free_cols = list(cycles)

    inv = table.invariants
    expected = 2 * inv.genus + inv.n_inf - 1
    if len(free_cols) != expected:
        raise DimensionMismatch(
            f"relative dimension {len(free_cols)} != {expected} at level {table.level}"
        )
    return RelativePresentation(table, pivots, free_cols, expressor)


@dataclass
class CuspOrbitMap:
    """Cusps as orbits of right T-translation on coset labels."""

    table: CosetTable
    orbit_of: list[int]
    num_orbits: int
    cusp_of_infinity: list[int]
    cusp_of_zero: list[int]


def cusp_orbits(table: CosetTable) -> CuspOrbitMap:
    n = table.size
    act_t = _symbol_action(table, T)
    orbit_of = [-1] * n
    count = 0
    for e in range(n):
        if orbit_of[e] != -1:
            continue
        cur = e
        while orbit_of[cur] == -1:
            orbit_of[cur] = count
            cur = act_t[cur]
        count += 1
    inv = table.invariants
    if count != inv.n_inf:
        raise DimensionMismatch(
            f"cusp orbit count {count} != {inv.n_inf} at level {table.level}"
        )
    act_s = _symbol_action(table, S)
    cusp_inf = orbit_of[:]
    cusp_zero = [orbit_of[act_s[e]] for e in range(n)]
    return CuspOrbitMap(table, orbit_of, count, cusp_inf, cusp_zero)


@dataclass
class CuspidalSpace:
    """Kernel of the boundary map inside the relative quotient.

    ``kernel_basis`` holds the fundamental cycles of the quotient
    generators left out of a spanning forest of the cusp graph, and
    ``projector_cols`` those generators.  ``project`` maps quotient
    coordinates to kernel coordinates along the complement spanned by
    the forest's edges.
    """

    table: CosetTable
    presentation: RelativePresentation
    cusps: CuspOrbitMap
    kernel_basis: list[list[int]]
    projector_cols: list[int]

    @property
    def dimension(self) -> int:
        return len(self.projector_cols)

    def project(self, quotient_coords: list[int]) -> tuple[int, ...]:
        return tuple(quotient_coords[c] for c in self.projector_cols)


def cuspidal_basis(pres: RelativePresentation, cusps: CuspOrbitMap) -> CuspidalSpace:
    """Kernel of the boundary map from a spanning forest over the cusps.

    The boundary of free generator j is cusp_of_zero - cusp_of_infinity,
    so the boundary matrix is the oriented incidence matrix of the graph
    on cusps with the free generators as edges, in column order.
    """
    table = pres.table
    ends = [(cusps.cusp_of_infinity[g], cusps.cusp_of_zero[g]) for g in pres.free_cols]
    _, cycles = _spanning_forest(ends, cusps.num_orbits)
    free = list(cycles)

    inv = table.invariants
    if len(free) != 2 * inv.genus:
        raise DimensionMismatch(
            f"cuspidal dimension {len(free)} != {2 * inv.genus} at level {table.level}"
        )

    kernel = [_dense(cycle, pres.dimension) for cycle in cycles.values()]
    return CuspidalSpace(table, pres, cusps, kernel, free)


@dataclass
class HomologyData:
    """Per-level bundle: presentation, cusps, cuspidal projection, J values."""

    table: CosetTable
    presentation: RelativePresentation
    cusps: CuspOrbitMap
    cuspidal: CuspidalSpace
    classes: list[tuple[int, ...]]

    @property
    def dimension(self) -> int:
        return self.cuspidal.dimension


def symbol_class(data: HomologyData, e: int) -> tuple[int, ...]:
    """Cuspidal class of the coset symbol of e, an exact integer 2g-vector."""
    return data.classes[e]


def build_homology(table: CosetTable) -> HomologyData:
    pres = manin_presentation(table)
    cusps = cusp_orbits(table)
    cuspidal = cuspidal_basis(pres, cusps)
    classes = [cuspidal.project(pres.class_of(e)) for e in range(table.size)]
    return HomologyData(table, pres, cusps, cuspidal, classes)


def classes_json(data: HomologyData) -> dict:
    return {
        "N": data.table.level,
        "dimension": data.dimension,
        "classes": [
            [[c.numerator, c.denominator] for c in vec] for vec in data.classes
        ],
    }
