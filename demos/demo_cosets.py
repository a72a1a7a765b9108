"""Cosets of Gamma_0(N) as the projective line over Z/N.

Walks through the bijection between cosets and bottom rows, the digit
action tau_k, and the closed-form invariants (index, elliptic counts,
cusps, genus) for a few levels.
"""

from modsym import CosetTable, subgroup_invariants


def main():
    print("Invariants of Gamma_0(N) for small N:")
    print(f"{'N':>4} {'kappa':>6} {'n2':>3} {'n3':>3} {'nInf':>5} {'genus':>6}")
    for N in (1, 2, 6, 11, 12, 37, 49, 50):
        inv = subgroup_invariants(N)
        print(f"{N:>4} {inv.kappa:>6} {inv.n2:>3} {inv.n3:>3} "
              f"{inv.n_inf:>5} {inv.genus:>6}")

    N = 11
    table = CosetTable(N)
    print(f"\nLevel {N}: {table.size} cosets named by P^1(Z/{N}) points (c:d):")
    print(" ", ", ".join(f"{e}=({c}:{d})" for e, (c, d) in enumerate(table.reps)))

    print(f"\nThe digit action tau_k(c:d) = (d : kd - c) depends on k mod {N}.")
    e = table.identity_label()
    print(f"Orbit of the identity coset {e} under repeated tau_1:")
    orbit = [e]
    while True:
        e = table.tau(1, e)
        if e == orbit[0]:
            break
        orbit.append(e)
    print("  " + " -> ".join(map(str, orbit + [orbit[0]])))

    print("\ntau_k for k = 1 and k = 12 agree (only k mod N matters):")
    print(" ", [table.tau(1, e) for e in range(table.size)])
    print(" ", [table.tau(12, e) for e in range(table.size)])


if __name__ == "__main__":
    main()
