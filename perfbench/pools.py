"""Seeded input pools for the three workloads.

Every pool has a fixed size and a fixed make-up (op classes, grids). Each
seeded input starts from a base instance, drawn by a generator with a fixed
seed (gate 6's random family, or a near-constant family), and the workload
seed then decides, per instance, whether to shift it by half a period,
t -> t + pi. The shift maps cos -> -cos and sin -> -sin, so it keeps every
coefficient's height, the region, the verdicts' truth and the number of
cycles, while it moves every cycle, sample, witness angle and byte of output.
Two seeds therefore give different inputs that cost the same work: the
run-to-run spread measures the machine, not the luck of the draw. (A quarter
turn would move the cost: gallery 2's check takes 0.68 s in its own frame
and 0.52 s a quarter turn on.)

The pool is built in `CHUNKS` chunks of the same make-up, so that set-up can
be timed several times within one run. An op is one `abel-cycles` command
line on one generated file. The ops of `fixed_ops` (gallery inputs,
malformed inputs, the constant A1Negative instance) are the same in every
run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from abelcycles.abel import FactoredAbel, classify_region
from abelcycles.criteria import (
    Outcome,
    check_at_most_one,
    check_definite_a2,
    check_no_cycle,
    eta_candidates,
)
from abelcycles.gallery import example1_input, example2_input
from abelcycles.planar import BivariatePoly
from abelcycles.oracle import displacement_map, fiber_components, graded_grid
from abelcycles.trig import TrigPoly, TrigRational

F = Fraction
CHUNKS = 5

# certify, per chunk: gate-6-style draws in four equal strata (sign of a1,
# with or without its cos wave) and one cubic-coefficient input; fixed:
# gallery 2's homogeneous system in its own frame and a quarter turn on,
# CERTIFY_HOMOGENEOUS times each, so that these ops hold the tail
CERTIFY_DRAWS_PER_STRATUM = 5
CERTIFY_HOMOGENEOUS = 7
# sweep, per chunk: clean A1Positive sweeps and A1Negative blow-up sweeps
SWEEP_CLEAN = 8
SWEEP_CLEAN_GRID = 40
SWEEP_BLOWUP = 4
SWEEP_BLOWUP_GRID = 1
SWEEP_GALLERY2_GRID = 2
# locate, per chunk: near-constant A1Positive instances, (a1, constant of a2)
LOCATE_GRID = 10
LOCATE_STRATA = ((1, F(3, 2)), (2, F(3))) * 4
LOCATE_CONSTANT_NEG = (-2, 1, -2)
# the graded grid on (1, 1001) misses this instance's cycle at y = 4 below
# grid 31 (at grid 20 its first point is about 7.6)
LOCATE_CONSTANT_NEG_GRID = 32


@dataclass
class Op:
    """One command line; `kind` names the op class, `meta` what the output
    checks need to know about the input."""

    name: str
    kind: str
    argv: list[str]
    meta: dict = field(default_factory=dict)


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return str(path)


def _frac(rng: random.Random, lo=-2, hi=2, den=2) -> Fraction:
    return F(rng.randint(lo, hi), rng.randint(1, den))


def gate6_draw(rng: random.Random, sign: int, wave: bool) -> FactoredAbel:
    """The random family of acceptance gate 6, with the sign of a1 and the
    presence of its cos wave fixed by the caller."""
    if wave:
        a1 = TrigPoly.constant(sign * F(rng.randint(2, 3))) + TrigPoly.coswave(
            1, _frac(rng, -1, 1, 2)
        )
    else:
        a1 = TrigPoly.constant(sign * F(rng.randint(1, 2)))
    a2 = TrigPoly.constant(_frac(rng)) + TrigPoly.sinwave(1, _frac(rng, -1, 1, 2))
    b2 = TrigPoly.constant(_frac(rng)) + TrigPoly.coswave(1, _frac(rng, -1, 1, 2))
    return FactoredAbel.from_parts(
        a1, TrigRational.from_poly(a2), TrigRational.from_poly(b2)
    )


def half_turn(f: FactoredAbel) -> FactoredAbel:
    """f(t + pi): c cos^i sin^j becomes (-1)^(i+j) c cos^i sin^j."""

    def turn(p: TrigPoly) -> TrigPoly:
        return TrigPoly.from_terms([(i, j, -c if (i + j) % 2 else c) for (i, j), c in p.terms])

    return FactoredAbel(turn(f.a1), TrigRational(turn(f.a2.num), turn(f.a2.den)),
                        TrigRational(turn(f.b2.num), turn(f.b2.den)))


def turn_homogeneous(doc: dict, k: int) -> dict:
    """The system x' = a x - y + P, y' = x + a y + Q in the plane turned by
    k quarter turns: (P, Q)(x, y) -> (-Q, P)(y, -x). The linear part
    commutes with the turn, so the verdicts do not change."""

    def sub(terms, sign):
        # x^i y^j at (y, -x) is (-1)^j x^j y^i
        return [(t["j"], t["i"], sign * (-1) ** t["j"] * F(t["c"])) for t in terms]

    p, q = doc["P"], doc["Q"]
    for _ in range(k % 4):
        p, q = (BivariatePoly.from_terms(sub(q, -1)).to_json(),
                BivariatePoly.from_terms(sub(p, 1)).to_json())
    return dict(doc, P=p, Q=q)


def _turned(base: random.Random, turns: random.Random, draw) -> FactoredAbel:
    """A base draw, shifted by half a period or not as the seed says."""
    f = draw(base)
    return half_turn(f) if turns.randrange(2) else f


def _holds_for_some_eta(checker, f: FactoredAbel) -> bool:
    return any(checker(f, eta).outcome is Outcome.HOLDS for eta in eta_candidates(f))


def _constant_parts(f: FactoredAbel):
    """(a1, a2, b2) as Fractions when every coefficient is constant."""
    a1 = f.a1.term_dict()
    a2n, a2d = f.a2.num.term_dict(), f.a2.den.term_dict()
    b2n, b2d = f.b2.num.term_dict(), f.b2.den.term_dict()
    parts = (a1, a2n, a2d, b2n, b2d)
    if any(set(p) - {(0, 0)} for p in parts):
        return None
    a1c, a2nc, a2dc, b2nc, b2dc = (p.get((0, 0), F(0)) for p in parts)
    return a1c, a2nc / a2dc, b2nc / b2dc


def _factored_meta(f: FactoredAbel) -> dict:
    meta = {"region": classify_region(f).kind.value}
    const = _constant_parts(f)
    if const is not None:
        meta["constant"] = [str(c) for c in const]
    return meta


# --- certify -------------------------------------------------------------


def _malformed_docs() -> list[tuple[str, dict]]:
    one = [{"i": 0, "j": 0, "c": "1"}]
    two = [{"i": 0, "j": 0, "c": "2"}]
    return [
        ("malformed-1-over-0", {
            "a1": [{"i": 0, "j": 0, "c": "1/0"}],
            "a2": {"num": two, "den": one},
            "b2": {"num": one, "den": one},
        }),
        ("malformed-empty-den", {
            "a1": one,
            "a2": {"num": two, "den": []},
            "b2": {"num": one, "den": one},
        }),
    ]


def _certify_chunk(base: random.Random, turns: random.Random, k: int,
                   inputs: Path) -> list[Op]:
    ops = []
    for sign in (1, -1):
        for wave in (False, True):
            for n in range(CERTIFY_DRAWS_PER_STRATUM):
                f = _turned(base, turns, lambda r: gate6_draw(r, sign, wave))
                name = f"c{k}-draw-{'p' if sign > 0 else 'n'}{'w' if wave else 'c'}{n:02d}"
                path = _write(inputs / f"{name}.json", f.to_json())
                ops.append(Op(name, "draw", ["check", "--input", path], _factored_meta(f)))
    # one cubic-coefficient input: a draw handed over as C1, C2, C3 with its
    # a1 as the invariant-curve candidate
    f = _turned(base, turns, lambda r: gate6_draw(r, r.choice((1, -1)), True))
    doc = f.to_abel().to_json()
    doc["a1"] = f.a1.to_json()
    name = f"c{k}-cubic"
    ops.append(Op(name, "cubic", ["check", "--input", _write(inputs / f"{name}.json", doc)]))
    return ops


# --- sweep ---------------------------------------------------------------


def _a2_negative_definite(f: FactoredAbel) -> bool:
    v = check_definite_a2(f)
    # definite_a2 holds with a definite a2; the sign comes from one sample
    return v.outcome is Outcome.HOLDS and f.a2.evaluate_float(0.0) < 0


def _sweep_op(name, kind, doc, grid, meta, inputs: Path, outputs: Path) -> Op:
    """An oracle op that also writes its JSON and per-sample CSV."""
    path = _write(inputs / f"{name}.json", doc)
    out = str(outputs / f"{name}.json")
    meta = dict(meta, grid=grid, csv=str(outputs / f"{name}.csv"))
    return Op(name, kind, ["oracle", "--input", path, "--grid", str(grid),
                           "--out", out], meta)


def _sweep_chunk(base: random.Random, turns: random.Random, k: int, inputs: Path,
                 outputs: Path) -> list[Op]:
    ops = []
    clean = 0
    while clean < SWEEP_CLEAN:
        f = _turned(base, turns, lambda r: gate6_draw(r, 1, r.random() < 0.5))
        if classify_region(f).kind.value != "A1Positive":
            continue
        if not _holds_for_some_eta(check_no_cycle, f):
            continue
        name = f"s{k}-clean{clean:02d}"
        ops.append(_sweep_op(name, "clean", f.to_json(), SWEEP_CLEAN_GRID,
                             _factored_meta(f), inputs, outputs))
        clean += 1
    blow = 0
    while blow < SWEEP_BLOWUP:
        f = _turned(base, turns, lambda r: gate6_draw(r, -1, r.random() < 0.5))
        if classify_region(f).kind.value != "A1Negative":
            continue
        if not _a2_negative_definite(f):
            continue
        if not _holds_for_some_eta(check_no_cycle, f):
            continue
        name = f"s{k}-blowup{blow:02d}"
        ops.append(_sweep_op(name, "blowup", f.to_json(), SWEEP_BLOWUP_GRID,
                             _factored_meta(f), inputs, outputs))
        blow += 1
    return ops


# --- locate --------------------------------------------------------------

def _one_sign_change(f: FactoredAbel, grid: int) -> bool:
    """The oracle's own bracketing on the op's grid, without refinement:
    exactly one sign change of d and no escaped sample."""
    changes = 0
    for _, eq, lo, hi in fiber_components(f)[0]:
        samples = displacement_map(eq, graded_grid(lo, hi, grid))
        if any(s.escaped for s in samples):
            return False
        ds = [s.d for s in samples]
        changes += sum(1 for a, b in zip(ds, ds[1:]) if (a > 0) != (b > 0))
    return changes == 1


def _near_constant(rng: random.Random, a1c, a2c) -> FactoredAbel:
    """a1 = a1c, a2 = a2c + e sin t, b2 = 1 + d cos t with small e, d."""
    amplitudes = [F(sign, d) for d in (8, 4) for sign in (-1, 1)]
    return FactoredAbel.from_parts(
        TrigPoly.constant(a1c),
        TrigRational.from_poly(TrigPoly.constant(a2c)
                               + TrigPoly.sinwave(1, rng.choice(amplitudes))),
        TrigRational.from_poly(TrigPoly.constant(1)
                               + TrigPoly.coswave(1, rng.choice(amplitudes))),
    )


def _locate_chunk(base: random.Random, turns: random.Random, k: int,
                  inputs: Path) -> list[Op]:
    ops = []
    for n, (a1c, a2c) in enumerate(LOCATE_STRATA):
        while True:
            f = _turned(base, turns, lambda r: _near_constant(r, a1c, a2c))
            certified = (_holds_for_some_eta(check_at_most_one, f)
                         or check_definite_a2(f).outcome is Outcome.HOLDS)
            if certified and _one_sign_change(f, LOCATE_GRID):
                break
        name = f"l{k}-near{n}"
        path = _write(inputs / f"{name}.json", f.to_json())
        ops.append(Op(name, "near_constant", ["oracle", "--input", path, "--grid",
                                              str(LOCATE_GRID)], _factored_meta(f)))
    return ops


def _dirs(workdir: Path) -> tuple[Path, Path]:
    inputs = workdir / "inputs"
    outputs = workdir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    return inputs, outputs


def fixed_ops(workload: str, workdir: Path) -> list[Op]:
    """The ops that do not depend on the seed."""
    inputs, outputs = _dirs(workdir)
    if workload == "certify":
        path = _write(inputs / "gallery1-planar.json", example1_input())
        ops = [Op("gallery1-planar", "gallery1", ["check", "--input", path])]
        for turn in (0, 1):
            name = f"gallery2-homogeneous-turn{turn}"
            path = _write(inputs / f"{name}.json", turn_homogeneous(example2_input(), turn))
            ops += [Op(f"{name}-{n}", "gallery2", ["check", "--input", path])
                    for n in range(CERTIFY_HOMOGENEOUS)]
        for example in ("example1", "example2"):
            ops.append(Op(f"reproduce-{example}", "reproduce", ["reproduce", example],
                          {"example": example}))
        for name, doc in _malformed_docs():
            path = _write(inputs / f"{name}.json", doc)
            ops.append(Op(name, "malformed", ["check", "--input", path]))
        return ops
    if workload == "sweep":
        return [_sweep_op("gallery2-homogeneous", "blowup", example2_input(),
                          SWEEP_GALLERY2_GRID, {"homogeneous": True}, inputs, outputs)]
    if workload == "locate":
        a1, a2, b2 = (TrigPoly.constant(c) for c in LOCATE_CONSTANT_NEG)
        f = FactoredAbel.from_parts(a1, TrigRational.from_poly(a2),
                                    TrigRational.from_poly(b2))
        name = "constant-negative"
        path = _write(inputs / f"{name}.json", f.to_json())
        return [Op(name, "constant_negative",
                   ["oracle", "--input", path, "--grid", str(LOCATE_CONSTANT_NEG_GRID)],
                   _factored_meta(f))]
    raise ValueError(f"unknown workload {workload!r}")


def build_chunk(workload: str, seed: int, k: int, workdir: Path) -> list[Op]:
    inputs, outputs = _dirs(workdir)
    base = random.Random(f"{workload}-base:{k}")
    turns = random.Random(f"{workload}:{seed}:{k}")
    if workload == "certify":
        return _certify_chunk(base, turns, k, inputs)
    if workload == "sweep":
        return _sweep_chunk(base, turns, k, inputs, outputs)
    if workload == "locate":
        return _locate_chunk(base, turns, k, inputs)
    raise ValueError(f"unknown workload {workload!r}")
