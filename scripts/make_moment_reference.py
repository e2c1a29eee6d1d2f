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

SECOND_DIFFERENCE_REFERENCE holds kernels._second_difference(row, c, w,
order), the Taylor remainder int_0^w (w - u)^order / order!
[S_row(c + u) + S_row(c - u)] du, for rows 2 and 3 at orders 1 and 2, from
its direct forms at 100 digits: with F'' = S_row, F = -G for row 2
(G(y) = (1 - cos y)/y, antiderivative Cin) and F = j0' for row 3 (j0(y) =
sin(y)/y), order 1 is F(c + w) + F(c - w) - 2 F(c) and order 2 is
P(c + w) - P(c - w) - 2 w F(c) with P' = F. Centers run from 0.01 to 1e4,
below the width too, and widths from 1e-7 to 2.
"""

import mpmath

mpmath.mp.dps = 50

ROWS = range(-1, 16)
MAGNITUDES = [1e-08, 1e-3, 0.1, 0.5, 0.9999, 1.0, 1.5, 2.0, 2.5, 3.0]
POINTS = [sign * y for y in MAGNITUDES for sign in (1.0, -1.0)]
W_X = [0.04, 0.0499, 0.05, 0.0501, 0.06, 0.08, 0.1, 0.2, 0.5, 0.9, 0.9999, 1.0, 1.0001, 1.1, 1.2]
W_C2 = [0.0, 1.0 / 3.0, 0.75, 1.0]
SD_C = [0.01, 0.3, 1.0, 2.0, 7.0, 100.0, 1e4]
SD_W = [1e-7, 1e-3, 0.5, 1.3, 2.0]
SD_DPS = 100


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


def second_difference(row, c, w, order):
    """The direct form of kernels._second_difference at SD_DPS digits."""
    with mpmath.workdps(SD_DPS):
        c, w = mpmath.mpf(c), mpmath.mpf(w)
        if row == 2:  # F = -G, P = -Cin
            def f(y):
                return 0 if y == 0 else (mpmath.cos(y) - 1) / y

            def p(y):
                return 0 if y == 0 else -(mpmath.euler + mpmath.log(abs(y)) - mpmath.ci(abs(y)))
        else:  # F = j0', P = j0
            def f(y):
                return 0 if y == 0 else (y * mpmath.cos(y) - mpmath.sin(y)) / y**2

            def p(y):
                return 1 if y == 0 else mpmath.sin(y) / y

        if order == 1:
            return f(c + w) + f(c - w) - 2 * f(c)
        return p(c + w) - p(c - w) - 2 * w * f(c)


def main():
    print('"""Frozen moments C_k(y) and S_k(y), k = -1 .. 15, the weight W and')
    print('_second_difference.')
    print()
    print("Generated by scripts/make_moment_reference.py with mpmath at 50 decimal")
    print("digits (SECOND_DIFFERENCE_REFERENCE at 100), rounded to the nearest")
    print('float64. Do not edit by hand."""')
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
    print()
    print("# (row, order, c, w, int_0^w (w - u)^order / order! [S_row(c + u) + S_row(c - u)] du)")
    print("SECOND_DIFFERENCE_REFERENCE = [")
    for row in (2, 3):
        for order in (1, 2):
            for c in SD_C:
                for w in SD_W:
                    value = float(second_difference(row, c, w, order))
                    print(f"    ({row}, {order}, {c!r}, {w!r}, {value!r}),")
    print("]")


if __name__ == "__main__":
    main()
