"""Regenerate tests/data/si_reference.py from extended-precision mpmath values.

Run from the repository root:

    python3 scripts/make_si_reference.py > tests/data/si_reference.py

The abscissas deliberately bracket the implementation's branch cutoffs at
x = 18 and x = 40 so the table pins accuracy right where branches hand over,
and run up to 1e12, past the kappa (r + t) of the lattice figure (about
1e11).

SI_DIFFERENCE_REFERENCE holds Si(h + x) - Si(h - x) past the light cone,
where h - x >= 40 puts both arguments in the asymptotic branch: x from 1e-3
to 1e5 and h - x from 40 to 1e11, across _auxiliary's edge at 634.2. Each h
is the float nearest x + (h - x) whose float64 h - x is at least that gap,
and mpmath takes the two floats exactly.

FAR_BRACKET_REFERENCE holds the closed phi's bracket
D = 2 Si(kappa r) - Si(kappa (r + t)) - Si(kappa (r - t)) past the light
cone at float64 (kappa, r, t), whose products kappa r and kappa t are not
floats: kappa from 0.01 to 10, kappa r from 1e-3 to 1e6 and kappa (t - r)
from 40 to 1e10, with t the float nearest r + gap / kappa whose float64
kappa (t - r) is at least the gap.
"""

import math

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

DIFFERENCE_X = [1e-3, 0.3, 1.0, 7.0, 100.0, 1234.5, 1e4, 1e5]
DIFFERENCE_GAP = [40.0, 41.0, 100.0, 634.0, 635.0, 1e3, 1e4, 1e6, 1e8, 1e10, 1e11]

BRACKET_KAPPA = [0.01, 0.1, 1.0, 10.0]
BRACKET_X = [1e-3, 1.0, 100.0, 1e4, 1e6]
BRACKET_GAP = [40.0, 41.0, 100.0, 1e3, 1e6, 1e10]


def difference_points():
    """(x, h) over the grid, with float64 h - x >= the gap."""
    points = []
    for x in DIFFERENCE_X:
        for gap in DIFFERENCE_GAP:
            h = x + gap
            while h - x < gap:
                h = math.nextafter(h, math.inf)
            points.append((x, h))
    return points


def bracket_points():
    """(kappa, r, t) over the grid, with float64 kappa (t - r) >= the gap."""
    points = []
    for kappa in BRACKET_KAPPA:
        for x in BRACKET_X:
            r = x / kappa
            for gap in BRACKET_GAP:
                t = r + gap / kappa
                while kappa * (t - r) < gap:
                    t = math.nextafter(t, math.inf)
                points.append((kappa, r, t))
    return points


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
    print()
    print("# (x, h, Si(h + x) - Si(h - x))")
    print("SI_DIFFERENCE_REFERENCE = [")
    for x, h in difference_points():
        x_mp, h_mp = mpmath.mpf(x), mpmath.mpf(h)
        val = mpmath.si(h_mp + x_mp) - mpmath.si(h_mp - x_mp)
        print(f"    ({x!r}, {h!r}, {float(val)!r}),")
    print("]")
    print()
    print("# (kappa, r, t, 2 Si(kappa r) - Si(kappa (r + t)) - Si(kappa (r - t)))")
    print("FAR_BRACKET_REFERENCE = [")
    for kappa, r, t in bracket_points():
        k, r_mp, t_mp = (mpmath.mpf(v) for v in (kappa, r, t))
        val = 2 * mpmath.si(k * r_mp) - mpmath.si(k * (r_mp + t_mp)) - mpmath.si(k * (r_mp - t_mp))
        print(f"    ({kappa!r}, {r!r}, {t!r}, {float(val)!r}),")
    print("]")


if __name__ == "__main__":
    main()
