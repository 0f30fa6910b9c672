#!/usr/bin/env python3
"""Scan constant-coefficient instances for ones whose certified bound is
attained by an actual cycle.

Constant instances make the attainment question transparent: cycles are
interior equilibria of x (a1 x - 1)(a2 x - b2), so the certified "at most
one" is attained exactly when b2/a2 lands inside the region. The scan prints
every instance where the criterion holds together with the measured count,
flagging the attaining ones.
"""

import argparse
import sys
from fractions import Fraction
from itertools import product

from abelcycles.abel import FactoredAbel
from abelcycles.criteria import Outcome, check_at_most_one, check_no_cycle
from abelcycles.oracle import IntegratorConfig, count_cycles_in_V
from abelcycles.poly import exact_cache
from abelcycles.trig import TrigPoly, TrigRational


def constant_instance(a1, a2, b2) -> FactoredAbel:
    return FactoredAbel.from_parts(
        TrigPoly.constant(a1), TrigRational.constant(a2), TrigRational.constant(b2)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=120)
    parser.add_argument(
        "--values",
        default="-2,-1,1,2",
        help=(
            "comma-separated rational values scanned for each coefficient; "
            "a list that starts with a negative value takes the = form, "
            "as in --values=-2,1"
        ),
    )
    args = parser.parse_args(argv)
    values = [Fraction(v) for v in args.values.split(",")]
    cfg = IntegratorConfig()

    attained = []
    print(f"{'a1':>5} {'a2':>5} {'b2':>5}  criterion        bound        count")
    for a1, a2, b2 in product(values, repeat=3):
        if a2 == 0:
            continue
        f = constant_instance(a1, a2, b2)
        # one run scope per input: its two checks share exact work, and the
        # memory it holds is freed before the next input
        with exact_cache():
            for name, checker in (("no_cycle", check_no_cycle),
                                  ("at_most_one", check_at_most_one)):
                v = checker(f, Fraction(0))
                if v.outcome is not Outcome.HOLDS:
                    continue
                rep = count_cycles_in_V(f, cfg, grid_density=args.grid)
                mark = "  <-- bound attained" if (
                    name == "at_most_one" and rep.count == 1
                ) else ""
                print(f"{str(a1):>5} {str(a2):>5} {str(b2):>5}  {name:<15} "
                      f"{v.bound.value:<12} {rep.count}{mark}")
                if rep.count > (0 if name == "no_cycle" else 1):
                    print("BOUND VIOLATED - this should never happen")
                    return 1
                if mark:
                    attained.append((a1, a2, b2))
    print(f"\n{len(attained)} attaining instance(s)")
    for a1, a2, b2 in attained:
        print(f"  a1={a1}, a2={a2}, b2={b2}: the cycle sits at x = b2/a2 "
              f"= {b2/a2} (wrapped into the second component when a1 < 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
