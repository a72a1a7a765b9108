"""Finite irreducibility of the coset-decorated shift space.

Builds the finite vertex graph on (coset, sign) pairs, certifies strong
connectivity, and replays a few witness words through the twisted Gauss
encoding to show they are genuinely admissible.
"""

from fractions import Fraction

from modsym import (
    CFInput,
    CosetTable,
    build_graph,
    check_finitely_irreducible,
    encode_orbit,
    is_admissible,
)


def main():
    for N in (2, 6, 11):
        table = CosetTable(N)
        graph = build_graph(table)
        report = check_finitely_irreducible(graph)
        print(f"N={N}: {graph.num_vertices} vertices, "
              f"{graph.num_edge_families} edge families, "
              f"irreducible={report.irreducible}, diameter={report.diameter}")

    N = 11
    table = CosetTable(N)
    report = check_finitely_irreducible(build_graph(table))
    print(f"\nWitness words at N={N} (smallest digits realizing each hop):")
    items = sorted(report.witnesses.items())
    for (src, dst), word in items[:5]:
        print(f"  vertex {src} -> {dst}: digits {word.digits()} "
              f"through cosets {word.cosets()}")
        assert is_admissible(word, table)

    print("\nEncoded orbits are admissible words of the same shift space:")
    x = CFInput(rational=Fraction(89, 233))  # Fibonacci quotient: digits 2,1,1,...
    seq = encode_orbit(table, x, table.identity_label(), 10)
    print(f"  x = 89/233 from coset 0: digits {seq.digits()}")
    print(f"  admissible: {is_admissible(seq, table)}; "
          f"terminated (rational orbit): {seq.terminated}")


if __name__ == "__main__":
    main()
