"""Regenerate tests/data/cin_reference.py from extended-precision mpmath values.

Run from the repository root:

    python3 scripts/make_cin_reference.py > tests/data/cin_reference.py

CIN_REFERENCE holds Cin(x) = int_0^x (1 - cos u)/u du = gamma + ln x - Ci(x)
from x = 1e-8 to 1e12, bracketing specfun's series/continued-fraction seam at
x = 3 and its continued-fraction/asymptotic seam at x = 40.

F_REFERENCE holds the zero-temperature f off the diagonal in the units of
kernels._f_shape, F = f pi / (alpha kappa^2), as a function of x = kappa r,
h = kappa t and c2 = cos^2 theta:

    F = (1 - c2) D/(2x) + (3 c2 - 1) B/x^3,
    D = 2 G(x) - G(x + h) - G(x - h),  G(y) = (1 - cos y)/y,
    B = -sin x (1 - cos h) + (h/2) [Cin(x + h) - Cin(|x - h|)],

evaluated at 60 digits, where the cancellations that the float routes avoid
cost nothing. Its points bracket the routes' cutoffs (x = 0.5 and 2, h = 2,
|x - h| = 40) and reach h = 1e11, beyond where the radial quadrature can
check f to 1e-14 of the diagonal; t = r exactly is included. Its last rows
are the diagonal x = 0, where F = (2/3)(1/2 + (1 - cos h - h sin h)/h^2)
at every c2.
"""

import mpmath

mpmath.mp.dps = 60

CIN_POINTS = [
    1e-08, 1e-3, 0.1, 0.5, 1.0, 2.0, 2.9, 3.0, 3.1, 5.0, 10.0, 18.0, 25.0,
    39.9, 40.0, 40.1, 50.0, 100.0, 1000.0, 1e4, 1e5, 1e6, 1e8, 1e10, 1e11, 1e12,
]

F_X = [1e-3, 0.3, 0.4999, 0.5001, 1.0, 1.999, 2.001, 10.0, 1e4]
F_H = [1e-6, 1e-2, 1.0, 1.999, 2.001, 30.0, 1e4, 1e6, 1e8, 1e11]
F_C2 = [0.0, 1.0 / 3.0, 1.0]
# |x - h| on both sides of the log route's cutoff, and t = r
F_EXTRA = [(10.0, 49.9), (10.0, 50.1), (100.0, 60.1), (100.0, 59.9), (3.0, 3.0), (1e4, 1e4)]


def cin(y):
    y = abs(mpmath.mpf(y))
    if y == 0:
        return mpmath.mpf(0)
    return mpmath.euler + mpmath.log(y) - mpmath.ci(y)


def g(y):
    y = mpmath.mpf(y)
    return mpmath.mpf(0) if y == 0 else (1 - mpmath.cos(y)) / y


def f_shape(x, h, c2):
    x, h, c2 = mpmath.mpf(x), mpmath.mpf(h), mpmath.mpf(c2)
    if x == 0:
        return (mpmath.mpf(1) / 2 + (1 - mpmath.cos(h) - h * mpmath.sin(h)) / h**2) * 2 / 3
    d = 2 * g(x) - g(x + h) - g(x - h)
    b = -mpmath.sin(x) * (1 - mpmath.cos(h)) + h / 2 * (cin(x + h) - cin(x - h))
    return (1 - c2) * d / (2 * x) + (3 * c2 - 1) * b / x**3


def main():
    print('"""Frozen Cin and zero-temperature f reference values.')
    print()
    print("Generated by scripts/make_cin_reference.py with mpmath at 60 decimal")
    print('digits, rounded to the nearest float64. Do not edit by hand."""')
    print()
    print("CIN_REFERENCE = [")
    for x in CIN_POINTS:
        print(f"    ({x!r}, {float(cin(x))!r}),")
    print("]")
    print()
    print("# (x = kappa r, h = kappa t, cos^2 theta, f pi / (alpha kappa^2))")
    print("F_REFERENCE = [")
    points = [(x, h) for x in F_X for h in F_H] + F_EXTRA + [(0.0, h) for h in F_H]
    for x, h in points:
        for c2 in F_C2:
            print(f"    ({x!r}, {h!r}, {c2!r}, {float(f_shape(x, h, c2))!r}),")
    print("]")


if __name__ == "__main__":
    main()
