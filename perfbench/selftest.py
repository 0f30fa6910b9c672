"""Self-test of the output checks on a tiny pool; runs in a few seconds.

    python3 perfbench/selftest.py

Runs a handful of real ops, shows that their outputs pass the checks, then
tampers with each output in one way and shows that the checks reject it: a
moved x*, a flipped verdict, a flipped witness sign, a wrong d, a nonzero
count and an escaped sample in the middle of a component. Exits 1 if any
right output is rejected or any wrong one accepted.
"""

import copy
import json
import random
import shutil
import sys

import run


def main() -> int:
    run._import_program()
    import checks
    import pools
    from abelcycles.abel import FactoredAbel
    from abelcycles.trig import TrigPoly, TrigRational

    workdir = run.RESULTS / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs, outputs = pools._dirs(workdir)
    failures = 0

    def expect(label: str, problems: list, want_rejected: bool):
        nonlocal failures
        ok = bool(problems) == want_rejected
        failures += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
              + (f" ({problems[0]})" if problems else ""))

    # certify: gallery 1 and a draw whose failing criteria carry witnesses
    gallery = [op for op in pools.fixed_ops("certify", workdir) if op.kind == "gallery1"][0]
    res = run.run_op(gallery)
    expect("gallery 1 bundle", checks.check_certify_op(gallery, res, None)[0], False)
    bundle = json.loads(res["stdout"])
    for v in bundle["verdicts"]:
        if v["criterion"] == "at_most_one":
            v["outcome"] = "Fails"
    bundle["exit"] = 1  # keep the exit code consistent with the flipped verdicts
    flipped = dict(res, stdout=json.dumps(bundle), code=1)
    expect("gallery 1 with at_most_one flipped to Fails",
           checks.check_certify_op(gallery, flipped, None)[0], True)

    rng = random.Random(0)
    while True:
        f = pools.gate6_draw(rng, 1, True)
        path = pools._write(inputs / "draw.json", f.to_json())
        draw = pools.Op("draw", "draw", ["check", "--input", path], pools._factored_meta(f))
        res = run.run_op(draw)
        problems, checked = checks.check_certify_op(draw, res, f.to_json())
        if checked:
            break
    expect(f"draw with {checked} re-evaluated witnesses", problems, False)
    bundle = json.loads(res["stdout"])
    for v in bundle["verdicts"]:
        for w in v["witnesses"]:
            w["condition"] = w["condition"].translate(str.maketrans("<>", "><"))
    expect("draw with every witness sign flipped",
           checks.check_certify_op(draw, dict(res, stdout=json.dumps(bundle)),
                                   f.to_json())[0], True)
    expect("draw with a wrong exit code",
           checks.check_certify_op(draw, dict(res, code=(res["code"] + 1) % 3),
                                   f.to_json())[0], True)

    # sweep: a small clean sweep
    f = pools.gate6_draw(rng, 1, False)
    while not pools._holds_for_some_eta(pools.check_no_cycle, f):
        f = pools.gate6_draw(rng, 1, False)
    f = pools.half_turn(f)
    op = pools._sweep_op("sweep", "clean", f.to_json(), 8, pools._factored_meta(f),
                         inputs, outputs)
    res = run.run_op(op)
    report, rows = json.loads(res["stdout"]), checks._read_csv(op.meta["csv"])
    expect("clean sweep", checks.check_sweep_op(op, report, rows, f.to_json()), False)
    bad = list(rows)
    i = len(bad) // 2
    bad[i] = (bad[i][0], bad[i][1] + 1e-3, bad[i][2], bad[i][3])
    expect("clean sweep with d moved by 1e-3",
           checks.check_sweep_op(op, report, bad, f.to_json()), True)
    bad = list(rows)
    bad[i] = (bad[i][0], float("nan"), float("nan"), True)
    expect("clean sweep with an escaped sample mid-component",
           checks.check_sweep_op(op, report, bad, f.to_json()), True)
    expect("clean sweep reporting one cycle",
           checks.check_sweep_op(op, dict(report, count=1), rows, f.to_json()), True)

    # locate: the constant instance a1 = 1, a2 = 2, b2 = 1 (cycle at 1/2)
    one, two = TrigPoly.constant(1), TrigPoly.constant(2)
    f = FactoredAbel.from_parts(one, TrigRational.from_poly(two), TrigRational.from_poly(one))
    path = pools._write(inputs / "const.json", f.to_json())
    op = pools.Op("const", "near_constant", ["oracle", "--input", path, "--grid", "10"],
                  pools._factored_meta(f))
    report = json.loads(run.run_op(op)["stdout"])
    expect("constant cycle", checks.check_locate_op(op, report, f.to_json()), False)
    moved = copy.deepcopy(report)
    moved["cycles"][0]["x_star"] += 1e-6
    expect("constant cycle with x* moved by 1e-6",
           checks.check_locate_op(op, moved, f.to_json()), True)
    relabel = copy.deepcopy(report)
    relabel["cycles"][0]["stability"] = "Unstable"
    expect("constant cycle relabelled Unstable",
           checks.check_locate_op(op, relabel, f.to_json()), True)
    # the same x* error on a cycle with no closed form, seen by solve_ivp alone
    op.meta.pop("constant")
    expect("x* moved by 1e-6, closed form not used",
           checks.check_locate_op(op, moved, f.to_json()), True)

    print("self-test passed" if not failures else f"self-test: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
