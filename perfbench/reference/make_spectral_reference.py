"""Rebuild spectral_reference.json: reference extreme eigenvalues for the
spectrum-ladder workload.

Every truncation with N <= 64 that the workload asks for gets lambda_min,
lambda_max and hs_norm_b = ||B||_F = sqrt(trace H^{-1}) = sqrt(sum 1/lambda_i)
from ``mpmath.eigsy`` at max(1200, 2 x ladder bits), where the
ladder bits follow the library's precision-ladder formula (4N + 64 plus the
binary size of the largest moment, at least the request's own 256 bits).
Moments are formed here from their closed forms, so the table does not
depend on the library.  Each matrix is solved twice, 128 bits apart, and the
script refuses to write a value on which the two solves disagree beyond
1e-30 relative.

Run from the repository root (takes a few minutes on one core):

    python3 perfbench/reference/make_spectral_reference.py
"""

import json
import os
import sys

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "spectral_reference.json")

# family -> (moment closed form at the current mpmath precision, grid, request bits)
FAMILIES = {
    "log_normal": (lambda j: mpmath.exp(mpmath.mpf(j) ** 2 / 2), range(4, 29, 4), 256),
    "gaussian": (
        lambda j: mpmath.mpf(0) if j % 2 else mpmath.fac2(j - 1) if j else mpmath.mpf(1),
        range(4, 41, 4),
        256,
    ),
    "hilbert": (lambda j: 1 / mpmath.mpf(j + 1), (2, 4, 8, 12, 16, 20, 24, 28, 32, 64), 53),
}


def ladder_bits(moment, n, floor):
    with mpmath.workprec(64):
        top = max(abs(moment(j)) for j in range(2 * n - 1))
        scale = 0 if top <= 1 else int(mpmath.ceil(mpmath.log(top, 2)))
    return max(4 * n + 64 + scale, floor, 64)


def spectrum(moment, n, bits):
    with mpmath.workprec(bits):
        h = mpmath.matrix(n, n)
        for k in range(n):
            for l in range(n):
                h[k, l] = moment(k + l)
        eig = sorted(mpmath.eigsy(h, eigvals_only=True))
        return eig[0], eig[-1], mpmath.sqrt(mpmath.fsum(1 / x for x in eig))


def main():
    table = {}
    for family, (moment, grid, floor) in FAMILIES.items():
        for n in grid:
            bits = max(1200, 2 * ladder_bits(moment, n, floor))
            lo, hi, hs = spectrum(moment, n, bits)
            lo2, hi2, hs2 = spectrum(moment, n, bits + 128)
            with mpmath.workprec(bits):
                for a, b in ((lo, lo2), (hi, hi2), (hs, hs2)):
                    if abs(a - b) > mpmath.mpf(10) ** -30 * abs(b):
                        sys.exit(f"{family} N={n}: solves disagree ({a} vs {b})")
            table[f"{family}/{n}"] = {
                "lambda_min": mpmath.nstr(lo, 30),
                "lambda_max": mpmath.nstr(hi, 30),
                "hs_norm_b": mpmath.nstr(hs, 30),
                "bits": bits,
            }
            print(f"{family:>10} N={n:<3} bits={bits:<5} "
                  f"lambda_min={mpmath.nstr(lo, 12)} lambda_max={mpmath.nstr(hi, 12)}",
                  flush=True)
    with open(OUT, "w") as fh:
        json.dump({"tool": f"mpmath {mpmath.__version__} eigsy", "entries": table},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
