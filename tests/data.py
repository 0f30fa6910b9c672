"""Frozen exact data for the two gallery systems, shared across test modules.

The sextic rigid system and the cubic homogeneous system exercise every layer
of the pipeline; expected values here were derived by hand and double-checked
numerically before the implementation existed.
"""

import random
from fractions import Fraction

from abelcycles.abel import FactoredAbel
from abelcycles.poly import RationalPoly
from abelcycles.trig import TrigPoly, TrigRational

F = Fraction

# --- sextic rigid system -----------------------------------------------
# p(x, y) = 1 - x^4 y^2/2 + x^3 y^3 - 5 x^2 y^4/2 + x y^5
#             - 2 x^6 y^6 + 3 x^5 y^7 - x^4 y^8
RIGID_P_TERMS = {
    (0, 0): F(1),
    (4, 2): F(-1, 2),
    (3, 3): F(1),
    (2, 4): F(-5, 2),
    (1, 5): F(1),
    (6, 6): F(-2),
    (5, 7): F(3),
    (4, 8): F(-1),
}
RIGID_K = 6

EX1_A1 = TrigPoly.from_terms([(3, 3, 1)])
EX1_A2 = TrigPoly.from_terms([(3, 3, -12), (2, 4, 18), (1, 5, -6)])
EX1_B2 = TrigRational(
    TrigPoly.from_terms([(1, 1, 6), (2, 0, 3), (0, 2, -3)]),
    TrigPoly.from_terms([(1, 1, 1)]),
)
EX1_ETA = F(-1)
EX1_COMBINATION = F(6)  # b2 - a1'/a1

EX1_C1 = TrigPoly.constant(6)
EX1_C2 = TrigPoly.from_terms([(4, 2, -3), (3, 3, 6), (2, 4, -15), (1, 5, 6)])
EX1_C3 = TrigPoly.from_terms([(6, 6, -12), (5, 7, 18), (4, 8, -6)])

# tangent-chart polynomials of a1, a2, a1 b2 - a2 + eta a1'
EX1_CHART_A1 = RationalPoly.from_coeffs([0, 0, 0, 1])
EX1_CHART_A2 = RationalPoly.from_coeffs([0, 0, 0, -12, 18, -6])
EX1_CHART_COND2 = RationalPoly.from_coeffs([0, 0, 0, 18, -18, 6])

# --- cubic homogeneous system ------------------------------------------
EX2_A = F(1, 2)
EX2_N = 3
EX2_P_COEFFS = {  # p_i multiplies x^(3-i) y^i ... stored as given lists below
    0: F(-1),
    1: F(20731, 20000),
    2: F(-19, 1000),
    3: F(9, 10000),
}
EX2_Q_COEFFS = {
    0: F(1, 2),
    1: F(2, 5),
    2: F(-17631, 20000),
    3: F(0),
}

# P3(x,y) = p3 x^3 + p2 x^2 y + p1 x y^2 + p0 y^3, same shape for Q3
EX2_P3_TERMS = {
    (3, 0): EX2_P_COEFFS[3],
    (2, 1): EX2_P_COEFFS[2],
    (1, 2): EX2_P_COEFFS[1],
    (0, 3): EX2_P_COEFFS[0],
}
EX2_Q3_TERMS = {
    (3, 0): EX2_Q_COEFFS[3],
    (2, 1): EX2_Q_COEFFS[2],
    (1, 2): EX2_Q_COEFFS[1],
    (0, 3): EX2_Q_COEFFS[0],
}


def _phi_terms():
    p0, p1, p2, p3 = (EX2_P_COEFFS[i] for i in range(4))
    q0, q1, q2, q3 = (EX2_Q_COEFFS[i] for i in range(4))
    return [
        (4, 0, p3),
        (3, 1, p2 + q3),
        (2, 2, p1 + q2),
        (1, 3, p0 + q1),
        (0, 4, q0),
    ]


def _psi_terms():
    p0, p1, p2, p3 = (EX2_P_COEFFS[i] for i in range(4))
    q0, q1, q2, q3 = (EX2_Q_COEFFS[i] for i in range(4))
    return [
        (4, 0, q3),
        (3, 1, q2 - p3),
        (2, 2, q1 - p2),
        (1, 3, q0 - p1),
        (0, 4, -p0),
    ]


EX2_PHI = TrigPoly.from_terms(_phi_terms())
EX2_PSI = TrigPoly.from_terms(_psi_terms())

# tangent charts: P_psi = (t-1) t (17649 + 9269 t + 20000 t^2)/20000,
# P_phi = (10t-9)(10t-1)(1 - 10t + 50t^2)/10000
EX2_CHART_PSI = (
    RationalPoly.from_coeffs([0, -1, 1])
    * RationalPoly.from_coeffs([17649, 9269, 20000])
).scale(F(1, 20000))
EX2_CHART_PHI = (
    RationalPoly.from_coeffs([-9, 10])
    * RationalPoly.from_coeffs([-1, 10])
    * RationalPoly.from_coeffs([1, -10, 50])
).scale(F(1, 10000))


# --- random instances ------------------------------------------------------

def random_instance(rng: random.Random) -> FactoredAbel:
    """A small random factored instance, as drawn by acceptance gate 6."""
    def frac(lo=-2, hi=2, den=2):
        return F(rng.randint(lo, hi), rng.randint(1, den))

    sign = rng.choice([-1, 1])
    if rng.random() < 0.5:
        a1 = TrigPoly.constant(sign * F(rng.randint(1, 2)))
    else:
        a1 = TrigPoly.constant(sign * F(rng.randint(2, 3))) + TrigPoly.coswave(
            1, frac(-1, 1, 2)
        )
    a2 = TrigPoly.constant(frac()) + TrigPoly.sinwave(1, frac(-1, 1, 2))
    b2 = TrigPoly.constant(frac()) + TrigPoly.coswave(1, frac(-1, 1, 2))
    return FactoredAbel.from_parts(
        a1, TrigRational.from_poly(a2), TrigRational.from_poly(b2)
    )


def family_member(a1: TrigPoly, g: TrigPoly, alpha: int, beta: int) -> FactoredAbel:
    """a2 = alpha g a1 and b2 = beta g, for a strictly signed a1: in the chart
    y = a1 x the equation is y' = g y (y - 1)(alpha y - beta), which
    oracles.family_flow solves in closed form."""
    return FactoredAbel.from_parts(
        a1, TrigRational.from_poly((g * a1).scale(alpha)), TrigRational.from_poly(g.scale(beta))
    )
