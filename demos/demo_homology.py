"""Exact homology classes of coset symbols on the modular curve X_0(N).

Shows the Manin presentation (2-term and 3-term relations), the cusp
orbits under T-translation, the cuspidal kernel of dimension 2g, and the
exact rational class of every coset symbol.  All arithmetic is exact.
"""

from fractions import Fraction

from modsym import CosetTable, build_homology, symbol_class


def main():
    N = 11
    table = CosetTable(N)
    data = build_homology(table)
    inv = table.invariants

    print(f"Level {N}: genus {inv.genus}, {inv.n_inf} cusps")
    print(f"Relative homology dimension: {data.presentation.dimension} "
          f"(= 2g + nInf - 1 = {2 * inv.genus + inv.n_inf - 1})")
    print(f"Cuspidal (kernel) dimension: {data.cuspidal.dimension} (= 2g)")

    print("\nCusp orbits of right T-translation (label -> orbit):")
    print(" ", data.cusps.orbit_of)

    print("\nExact symbol classes (coordinates in the cuspidal basis):")
    for e in range(table.size):
        c, d = table.reps[e]
        print(f"  e={e:>2} ({c}:{d}):  {tuple(map(str, symbol_class(data, e)))}")

    total = [Fraction(0)] * data.dimension
    for e in range(table.size):
        for i, v in enumerate(symbol_class(data, e)):
            total[i] += v
    print(f"\nSum over all cosets: {tuple(map(str, total))} "
          "(exactly zero: the e -> eS involution negates the sum)")


if __name__ == "__main__":
    main()
