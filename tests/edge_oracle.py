"""The vertex graph's per-edge table, built from the matrix definition of tau.

An oracle for the tests, independent of ``CosetTable.action`` and of
``digit_table``: vertex 2e + b is coset e with sign +1 (b = 0) or -1
(b = 1).  Its residue-r edge family has the digit k of smallest magnitude
with k = r mod N and sign opposite to the vertex's, and ends at the coset
of e S T^k, the label of (d : k d - c) where (c : d) is the rep of e, with
the sign of k.
"""


def edge_table(table):
    """``edges[v]`` lists (target vertex, digit) in residue order r = 0..N-1."""
    N = table.level
    edges = []
    for c, d in table.reps:
        for digit_sign in (-1, 1):
            row = []
            for r in range(N):
                k = (r or N) if digit_sign > 0 else r - N
                row.append((2 * table.label_of_row(d, k * d - c) + (k < 0), k))
            edges.append(row)
    return edges
