"""Regenerate tests/data/moment_reference.py from extended-precision mpmath values.

Run from the repository root:

    python3 scripts/make_moment_reference.py > tests/data/moment_reference.py

MOMENT_REFERENCE holds the two moments whose Maclaurin series specfun sums
for every small-argument expansion of the kernels,

    C_k(y) = int_0^1 s^k (cos ys - 1) ds,    S_k(y) = int_0^1 s^k sin(ys) ds,

for every row k = -1 .. 15 of its coefficient table, at |y| from 1e-8 to 3
(the largest edge below which a series is used, Cin's) and both signs of y.
They are integrated by mpmath's quadrature at 50 digits, not summed from
the series, so the table's coefficients are checked too; the row k = -1 is
-Cin(y) and Si(y) from mpmath's ci and si.

W_REFERENCE holds the geometric weight of the radial quadrature,
W(x) = (1 - c2) j0(x) + (3 c2 - 1) j1(x)/x, on [0.04, 1.2]: across kernels'
series edge at x = 1, and just above 0.05, where the trig form of j1(x)/x
loses about 1/x^2 ulps.
"""

import mpmath

mpmath.mp.dps = 50

ROWS = range(-1, 16)
MAGNITUDES = [1e-08, 1e-3, 0.1, 0.5, 0.9999, 1.0, 1.5, 2.0, 2.5, 3.0]
POINTS = [sign * y for y in MAGNITUDES for sign in (1.0, -1.0)]
W_X = [0.04, 0.0499, 0.05, 0.0501, 0.06, 0.08, 0.1, 0.2, 0.5, 0.9, 0.9999, 1.0, 1.0001, 1.1, 1.2]
W_C2 = [0.0, 1.0 / 3.0, 0.75, 1.0]


def moments(k, y):
    """(C_k(y), S_k(y)) at 50 digits."""
    y = mpmath.mpf(y)
    if k == -1:
        cin = mpmath.euler + mpmath.log(abs(y)) - mpmath.ci(abs(y))
        return -cin, mpmath.si(y)
    c = mpmath.quad(lambda s: s**k * (-2 * mpmath.sin(y * s / 2) ** 2), [0, 1])
    s = mpmath.quad(lambda s: s**k * mpmath.sin(y * s), [0, 1])
    return c, s


def weight(x, c2):
    x, c2 = mpmath.mpf(x), mpmath.mpf(c2)
    j0 = mpmath.sin(x) / x
    j1x = (mpmath.sin(x) - x * mpmath.cos(x)) / x**3
    return (1 - c2) * j0 + (3 * c2 - 1) * j1x


def main():
    print('"""Frozen moments C_k(y) and S_k(y), k = -1 .. 15, and the weight W.')
    print()
    print("Generated by scripts/make_moment_reference.py with mpmath at 50 decimal")
    print('digits, rounded to the nearest float64. Do not edit by hand."""')
    print()
    print("# (k, y, C_k(y) = int_0^1 s^k (cos ys - 1) ds, S_k(y) = int_0^1 s^k sin(ys) ds)")
    print("MOMENT_REFERENCE = [")
    for k in ROWS:
        for y in POINTS:
            c, s = moments(k, y)
            print(f"    ({k}, {y!r}, {float(c)!r}, {float(s)!r}),")
    print("]")
    print()
    print("# (x, cos^2 theta, W(x) = (1 - c2) j0(x) + (3 c2 - 1) j1(x)/x)")
    print("W_REFERENCE = [")
    for x in W_X:
        for c2 in W_C2:
            print(f"    ({x!r}, {c2!r}, {float(weight(x, c2))!r}),")
    print("]")


if __name__ == "__main__":
    main()
