#!/usr/bin/env python3
"""Convergence of the two floating estimators against the certified radius.

Prints, for a handful of integer matrices, how the norm-doubling and
trace-root estimates approach the exact spectral radius as the power grows.
"""

from dyndeg.estimators import gelfand_sequence, trace_sequence
from dyndeg.spectral import spectral_radius

MATRICES = {
    "fibonacci": [[1, 1], [1, 0]],
    "swap(2,3)": [[0, 3], [2, 0]],
    "pell": [[3, 4], [2, 3]],
    "jordan(2)": [[2, 1], [0, 2]],
    "rotation": [[0, -1], [1, 0]],
}


def main():
    for name, matrix in MATRICES.items():
        rho, err = spectral_radius(matrix, tol=1e-12)
        print(f"\n{name}: certified rho = {rho:.12f} (err <= {err:.1e})")
        gel = gelfand_sequence(matrix, 10)
        tr = dict(trace_sequence(matrix, 64))
        print(f"  {'m':>6s} {'norm^(1/m)':>14s} {'|trace|^(1/m)':>14s}")
        for m, est in gel:
            t = tr.get(m)
            t_str = f"{t:14.8f}" if t is not None else " " * 14
            print(f"  {m:6d} {est:14.8f} {t_str}")


if __name__ == "__main__":
    main()
