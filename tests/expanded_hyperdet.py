"""The expanded form d1 - 2 d2 + 4 d3 of Cayley's hyperdeterminant, an
independent reference for the library's 2 x 2 form (tritangle.measures).

It takes the eight amplitudes as separate arguments, a_m the coefficient of
|ijk> with m = 4i + 2j + k: numpy columns or strided views a[..., m], or sympy
symbols. Only sums and products are used, so on small
integers every step is exact.
"""


def hyperdet(a0, a1, a2, a3, a4, a5, a6, a7):
    d1 = a0**2 * a7**2 + a1**2 * a6**2 + a2**2 * a5**2 + a4**2 * a3**2
    d2 = (
        a0 * a7 * a3 * a4
        + a0 * a7 * a5 * a2
        + a0 * a7 * a6 * a1
        + a3 * a4 * a5 * a2
        + a3 * a4 * a6 * a1
        + a5 * a2 * a6 * a1
    )
    d3 = a0 * a6 * a5 * a3 + a7 * a1 * a2 * a4
    return d1 - 2 * d2 + 4 * d3
