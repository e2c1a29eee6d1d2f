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

EDGE_REFERENCE holds the two cutoff-edge brackets that kernels._phi_edge_rt
adds to the closed phi, with k = kappa,

    i0    = [t sin(kr)/r^2 - t k cos(kr)/r - sin(k (t - r))/(2 (t - r))
             + sin(k (t + r))/(2 (t + r))] / r,
    aniso = [(cos(k (t - r)) - cos(k (t + r)))/(2k) - t sin(kr)] / r^3,

in these direct forms at 150 digits: both vanish like (kt)^3 and kt, and at
kt = 1e-16 their terms cancel to about 1e-51 of their size (at 60 digits
i0 is 1.7e-10 off at k = 0.01, r = 0.3, kt = 1e-16). kappa takes 0.01,
0.1 and 1, kr 3e-3 to 1e4 and kt 1e-16 to 10, with kt = 2 exactly and one
ulp either side as float64 computes kappa t, and t = r.
"""

import math

import mpmath

mpmath.mp.dps = 60
EDGE_DPS = 150

CIN_POINTS = [
    1e-08, 1e-3, 0.1, 0.5, 1.0, 2.0, 2.9, 3.0, 3.1, 5.0, 10.0, 18.0, 25.0,
    39.9, 40.0, 40.1, 50.0, 100.0, 1000.0, 1e4, 1e5, 1e6, 1e8, 1e10, 1e11, 1e12,
]

F_X = [1e-3, 0.3, 0.4999, 0.5001, 1.0, 1.999, 2.001, 10.0, 1e4]
F_H = [1e-6, 1e-2, 1.0, 1.999, 2.001, 30.0, 1e4, 1e6, 1e8, 1e11]
F_C2 = [0.0, 1.0 / 3.0, 1.0]
# |x - h| on both sides of the log route's cutoff, and t = r
F_EXTRA = [(10.0, 49.9), (10.0, 50.1), (100.0, 60.1), (100.0, 59.9), (3.0, 3.0), (1e4, 1e4)]

EDGE_KAPPA = [0.01, 0.1, 1.0]
EDGE_X = [3e-3, 0.1, 0.9999, 1.0001, 2.0, 10.0, 100.0, 1e4]
EDGE_H = [1e-16, 1e-12, 1e-8, 1e-4, 1e-2, 0.5, 1.0, 1.999, 2.0, 2.001, 3.0, 10.0]


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


def kappa_times(kappa, h):
    """The float t nearest h / kappa at which float64's kappa * t is h, or, where
    no t gives h itself, h / kappa."""
    t = h / kappa
    for step in range(-4, 5):
        guess = t
        for _ in range(abs(step)):
            guess = math.nextafter(guess, math.copysign(math.inf, step))
        if kappa * guess == h:
            return guess
    return t


def edge_points():
    """(kappa, r, t) over the grid: kt = 2 and one ulp either side of it, and
    t = r, as float64 computes kappa t."""
    two = [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)]
    points = []
    for kappa in EDGE_KAPPA:
        for x in EDGE_X:
            r = x / kappa
            times = [kappa_times(kappa, h) for h in sorted(set(EDGE_H + two))]
            points += [(kappa, r, t) for t in times + [r]]
    return points


def edge(kappa, r, t):
    """(i0, aniso) in their direct forms at EDGE_DPS digits."""
    with mpmath.workdps(EDGE_DPS):
        k, r, t = mpmath.mpf(kappa), mpmath.mpf(r), mpmath.mpf(t)
        sinc_minus = k if t == r else mpmath.sin(k * (t - r)) / (t - r)
        sin_kr = mpmath.sin(k * r)
        i0 = (
            t * sin_kr / r**2 - t * k * mpmath.cos(k * r) / r
            - sinc_minus / 2 + mpmath.sin(k * (t + r)) / (2 * (t + r))
        ) / r
        aniso = ((mpmath.cos(k * (t - r)) - mpmath.cos(k * (t + r))) / (2 * k) - t * sin_kr) / r**3
        return float(i0), float(aniso)


def main():
    print('"""Frozen Cin and zero-temperature f reference values.')
    print()
    print("Generated by scripts/make_cin_reference.py with mpmath at 60 decimal")
    print("digits (EDGE_REFERENCE at 150), rounded to the nearest float64. Do not")
    print('edit by hand."""')
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
    print()
    print("# (kappa, r, t, i0, aniso): the cutoff-edge brackets of kernels._phi_edge_rt")
    print("EDGE_REFERENCE = [")
    for kappa, r, t in edge_points():
        i0, aniso = edge(kappa, r, t)
        print(f"    ({kappa!r}, {r!r}, {t!r}, {i0!r}, {aniso!r}),")
    print("]")


if __name__ == "__main__":
    main()
