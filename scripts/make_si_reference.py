"""Regenerate tests/data/si_reference.py from extended-precision mpmath values.

Run from the repository root:

    python3 scripts/make_si_reference.py > tests/data/si_reference.py

The abscissas deliberately bracket the implementation's branch cutoffs at
x = 18 and x = 40 so the table pins accuracy right where branches hand over,
and run up to 1e12, past the kappa (r + t) of the lattice figure (about
1e11).
"""

import mpmath

mpmath.mp.dps = 40

POINTS = [
    1e-08,
    1e-3,
    0.5,
    1.0,
    2.0,
    float(mpmath.pi),
    5.0,
    8.0,
    10.0,
    12.0,
    15.0,
    17.9,
    18.0,
    18.1,
    20.0,
    25.0,
    30.0,
    35.0,
    39.9,
    40.0,
    40.1,
    50.0,
    75.0,
    100.0,
    317.0,
    1000.0,
    1e4,
    1e5,
    1e6,
    1e7,
    1e8,
    1e9,
    1e10,
    3e10,
    1e11,
    4.5e11,
    1e12,
]


def main():
    print('"""Frozen sine-integral reference values.')
    print()
    print("Generated by scripts/make_si_reference.py with mpmath at 40 decimal")
    print('digits, rounded to the nearest float64. Do not edit by hand."""')
    print()
    print("SI_REFERENCE = [")
    for x in POINTS:
        val = mpmath.si(mpmath.mpf(x))
        print(f"    ({x!r}, {float(val)!r}),")
    print("]")


if __name__ == "__main__":
    main()
