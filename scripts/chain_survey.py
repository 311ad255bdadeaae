#!/usr/bin/env python3
"""Survey the spectral comparison chain across a battery of models.

For each model + self-map, prints the radius on the ample-generated stable
subalgebra, the max over algebraic blocks, the max over all blocks, and the
verdicts.  Equality is expected exactly on the rows whose realizability a
builder asserted; lattice-only surface models report it informationally.
"""

from dyndeg.abelian import elliptic_square
from dyndeg.gromov import gromov_closure, spectral_chain
from dyndeg.lattice import surface_lattice
from dyndeg.projective import (
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
)


def battery():
    rows = []
    for n in (1, 2, 3):
        model = projective_space(n)
        for d in (0, 1, 2, 3):
            rows.append((f"P{n} d={d}", model, pn_power_map(model, d)))
    mp = multiprojective([1, 1])
    rows.append(("P1xP1 swap(2,3)", mp, product_map(mp, [2, 3], [1, 0])))
    mp22 = multiprojective([2, 2])
    rows.append(("P2xP2 swap(1,3)", mp22, product_map(mp22, [1, 3], [1, 0])))
    mp111 = multiprojective([1, 1, 1])
    rows.append(("P1^3 cycle(2,3,1)", mp111,
                 product_map(mp111, [2, 3, 1], [1, 2, 0])))
    rows.append(("ExE fibonacci", *elliptic_square([[1, 1], [1, 0]])))
    rows.append(("ExE doubling", *elliptic_square([[2, 0], [0, 2]])))
    rows.append(("Pell surface",
                 *surface_lattice([[1, 0], [0, -2]], [[3, 4], [2, 3]], [1, 0])))
    rows.append(("U-lattice swap",
                 *surface_lattice([[0, 1], [1, 0]], [[0, 1], [1, 0]], [1, 1])))
    return rows


def main():
    print(f"{'model':22s} {'lambda_gr':>12s} {'max_lambda':>12s} "
          f"{'max_mu':>12s} {'chain':>6s} {'equal':>6s} {'asserted':>9s}")
    for name, model, pull in battery():
        rep = spectral_chain(model, gromov_closure(pull, model.h))
        print(f"{name:22s} {rep.lambda_gr:12.6f} {rep.max_lambda:12.6f} "
              f"{rep.max_mu:12.6f} {str(rep.chain_holds):>6s} "
              f"{str(rep.equality_holds):>6s} {str(rep.equality_asserted):>9s}")


if __name__ == "__main__":
    main()
