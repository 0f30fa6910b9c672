#!/usr/bin/env python3
"""Re-derive both gallery systems end to end and cross-check the exact
verdicts against the numerical oracle; exit nonzero on any mismatch."""

import sys
import time

from abelcycles.criteria import Outcome, check_at_most_one, check_planar_no_cycle
from abelcycles.gallery import (
    EXAMPLE1_ETA,
    example1_factored,
    example2_system,
    reproduce,
)
from abelcycles.oracle import IntegratorConfig, count_cycles_in_V
from abelcycles.planar import cherkas_transform
from abelcycles.poly import exact_cache


def main() -> int:
    failures = 0
    for example in ("example1", "example2"):
        t0 = time.monotonic()
        # one run scope per input keeps shared exact work bounded
        with exact_cache():
            report = reproduce(example)
        dt = time.monotonic() - t0
        for line in report.lines:
            status = "PASS" if line.passed else "FAIL"
            print(f"  {status}  {line.name}")
        print(f"{example}: {'ok' if report.ok else 'MISMATCH'} ({dt:.1f}s)")
        failures += sum(1 for line in report.lines if not line.passed)

    cfg = IntegratorConfig()
    print("cross-checks against the displacement-map oracle:")

    f1 = example1_factored()
    sys2 = example2_system()
    with exact_cache():
        check1 = (check_at_most_one(f1, EXAMPLE1_ETA),
                  count_cycles_in_V(f1, cfg, grid_density=200))
    with exact_cache():
        check2 = (check_planar_no_cycle(sys2),
                  count_cycles_in_V(cherkas_transform(sys2), cfg, grid_density=200))
    cross_checks = (
        ("gallery 1: certified at most one", *check1, 1),
        ("gallery 2: certified cycle-free", *check2, 0),
    )
    for claim, verdict, rep, bound in cross_checks:
        if rep.escaped_samples == rep.total_samples:
            # an all-escaped sweep measured no displacement, so it checks nothing
            print(f"  SKIP  {claim}, but all {rep.total_samples} oracle samples "
                  f"escaped ({rep.notes})")
            continue
        ok = verdict.outcome is Outcome.HOLDS and rep.count <= bound
        print(f"  {'PASS' if ok else 'FAIL'}  {claim}, oracle found {rep.count}")
        failures += 0 if ok else 1

    print("all good" if failures == 0 else f"{failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
