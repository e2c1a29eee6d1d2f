"""Print specfun's frozen Chebyshev fit of the auxiliary functions of Si and Ci.

Run from the repository root:

    python3 scripts/make_auxiliary_fit.py

The output is the `_AUXILIARY_FIT` block of src/dmtsim/specfun.py, which
must equal it byte for byte (CI compares the two). With

    f(x) = Ci(x) sin x - (Si(x) - pi/2) cos x,
    g(x) = -Ci(x) cos x - (Si(x) - pi/2) sin x

(Abramowitz and Stegun 5.2.6-7), so that Ci = f sin x - g cos x and
Si = pi/2 - f cos x - g sin x, row 0 holds the Chebyshev coefficients of
x f(x) and row 1 those of x^2 g(x), both near 1 and smooth in u = 1/x,
over 3 <= x <= 40 mapped to

    t = (2 u - (1/3 + 1/40)) / (1/3 - 1/40) = (240/x - 43)/37 in [-1, 1],

each sum c_0 + c_1 T_1(t) + ... + c_36 T_36(t). The coefficients are
interpolated at 128 Chebyshev nodes with mpmath at 50 digits and rounded
to the nearest float64; those past degree 36 sum to less than 3e-19.
"""

import mpmath

mpmath.mp.dps = 50

LOW, HIGH = 3, 40  # the fitted interval in x
DEGREE = 36
NODES = 128
PER_LINE = 3


def auxiliary(x):
    """(x f(x), x^2 g(x)) at mpmath precision."""
    ci, si = mpmath.ci(x), mpmath.si(x) - mpmath.pi / 2
    sin_x, cos_x = mpmath.sin(x), mpmath.cos(x)
    return x * (ci * sin_x - si * cos_x), x * x * (-ci * cos_x - si * sin_x)


def coefficients():
    """Both rows' Chebyshev coefficients c_0 .. c_DEGREE in t, by the
    discrete cosine transform of their values at the nodes."""
    u_low, u_high = mpmath.mpf(1) / HIGH, mpmath.mpf(1) / LOW
    angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / NODES for j in range(NODES)]
    values = [auxiliary(2 / (u_high + u_low + (u_high - u_low) * mpmath.cos(a))) for a in angles]
    rows = []
    for row in range(2):
        row_coefficients = []
        for k in range(DEGREE + 1):
            c = 2 * mpmath.fsum(v[row] * mpmath.cos(k * a) for v, a in zip(values, angles)) / NODES
            row_coefficients.append(float(c / 2 if k == 0 else c))
        rows.append(row_coefficients)
    return rows


def main():
    print("_AUXILIARY_FIT = np.array([")
    for label, row in zip(("x f(x)", "x^2 g(x)"), coefficients()):
        print(f"    [  # {label}")
        for start in range(0, len(row), PER_LINE):
            print("        " + " ".join(f"{c!r}," for c in row[start : start + PER_LINE]))
        print("    ],")
    print("])")


if __name__ == "__main__":
    main()
