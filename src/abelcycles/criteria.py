"""Exact limit-cycle criteria for cubic Abel equations and planar reductions.

Every decision here is symbolic: circle-wide sign questions are pushed into
polynomial charts (tangent or half-angle) and settled with Sturm counts, so a
verdict is a certificate, not a sampling heuristic.

Checkers:

* check_no_cycle / check_at_most_one: factored Abel equations with invariant
  curves x = 0 and a1 x = 1, parameterized by a rational multiplier eta;
* check_definite_a2: one-signed a2 alone bounds the cycle count by one;
* check_normalized: the normalized-form criterion read on a1, a2 and b2,
  including an exact decision of "some eta makes a1*b2 + eta*a2 sign
  definite";
* linear_parameter_feasible: whether some rational mu makes pa + mu*pb >= 0
  on R, always decided, for check_normalized and obstruction_report;
* check_planar_no_cycle / check_planar_at_most_one: homogeneous planar
  systems, decided directly on the angular/radial components phi and psi;
* obstruction_report: five certificates that no sign-combination argument of
  the normalized family applies to a given homogeneous system;
* eta_candidates: rational multipliers that cancel the odd-order poles of
  b2 + eta a1'/a1;
* best_over_etas: one factored check over a list of multipliers, first
  Holds wins.

Verdict vocabulary: outcome Holds/Fails/Inapplicable, bound NoNontrivialCycle
or AtMostOne, branch PositiveBranch/NegativeBranch. Fails verdicts carry
witnesses whose violated signs can be re-evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .abel import (
    FactoredAbel,
    RegionKind,
    classify_region,
    riccati_bound_applies,
)
from .planar import HomogeneousSystem
from .poly import (
    EndpointRootError,
    RationalPoly,
    SignOnSet,
    as_fraction,
    count_distinct_roots,
    frac_str,
    isolate_real_roots,
    real_line_cells,
    refine_interval,
    sign_report_on_real_line,
)
from .trig import (
    CircleChart,
    SignReport,
    TrigLike,
    TrigPoly,
    TrigRational,
    _half_turn,
    _value_at_pi,
    cancel_pole_combination,
    definite_sign_report,
    has_odd_order_pole,
)


class Outcome(str, Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INAPPLICABLE = "Inapplicable"


class Bound(str, Enum):
    NO_CYCLE = "NoNontrivialCycle"
    AT_MOST_ONE = "AtMostOne"


class Branch(str, Enum):
    POSITIVE = "PositiveBranch"
    NEGATIVE = "NegativeBranch"


@dataclass(frozen=True)
class Witness:
    """A chart sample (point or isolating interval) at which the named
    condition is violated or attained; signs there are re-checkable exactly
    from the chart polynomials of each function's sign proxy (the tests do
    this with `witness_sign` in tests/identities.py).

    chart is 'tan', 'tan2' (shifted half period), 'half', or 'point'; for
    'point' the exact circle coordinates are carried in `circle`.
    """

    condition: str
    chart: str
    point: Optional[Fraction] = None
    interval: Optional[tuple[Fraction, Fraction]] = None
    circle: Optional[tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        if self.chart == "point" and self.circle is None:
            raise ValueError("a point witness needs its exact circle coordinates")

    def sample(self):
        """The chart coordinate (the interval midpoint for an interval), or
        the exact (cos, sin) of a point."""
        if self.chart == "point":
            return self.circle
        if self.point is not None:
            return self.point
        return (self.interval[0] + self.interval[1]) / 2

    def theta(self) -> float:
        return CircleChart.angle(self.chart, self.sample())

    def to_json(self) -> dict:
        out: dict = {"condition": self.condition, "chart": self.chart}
        if self.point is not None:
            out["point"] = frac_str(self.point)
        if self.interval is not None:
            out["interval"] = [frac_str(self.interval[0]), frac_str(self.interval[1])]
        if self.circle is not None:
            out["circle"] = {"cos": frac_str(self.circle[0]), "sin": frac_str(self.circle[1])}
        out["theta"] = self.theta()
        return out


@dataclass(frozen=True)
class StrictnessEvidence:
    """A positive-length chart interval on which the strict inequalities of a
    criterion hold; certified root-free, so one rational sample fixes the
    signs on the whole interval."""

    condition: str
    chart: str
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("strictness interval must have positive length")

    def theta_interval(self) -> tuple[float, float]:
        a = CircleChart.angle(self.chart, self.lo)
        b = CircleChart.angle(self.chart, self.hi)
        return (min(a, b), max(a, b))

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "chart": self.chart,
            "interval": [frac_str(self.lo), frac_str(self.hi)],
            "theta_interval": list(self.theta_interval()),
        }


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str
    outcome: Outcome
    bound: Optional[Bound] = None
    branch: Optional[Branch] = None
    eta: Optional[Fraction] = None
    witnesses: tuple[Witness, ...] = ()
    strictness: Optional[StrictnessEvidence] = None
    notes: str = ""

    def __post_init__(self):
        if self.outcome is Outcome.HOLDS and self.bound is None:
            raise ValueError("a holding criterion must state its bound")
        if self.outcome is Outcome.FAILS and not self.witnesses and not self.notes:
            raise ValueError("a failing criterion needs a witness or an explanation")

    @property
    def holds(self) -> bool:
        return self.outcome is Outcome.HOLDS

    def to_json(self) -> dict:
        return {
            "criterion": self.criterion,
            "outcome": self.outcome.value,
            "bound": self.bound.value if self.bound else None,
            "branch": self.branch.value if self.branch else None,
            "eta": frac_str(self.eta) if self.eta is not None else None,
            "witnesses": [w.to_json() for w in self.witnesses],
            "strictness_evidence": self.strictness.to_json() if self.strictness else None,
            "notes": self.notes,
        }


# --- joint sign charts over the circle ------------------------------------


def circle_implication(
    premise: TrigLike,
    prem_dir: int,
    conclusion: TrigLike,
    concl_dir: int,
    condition: str = "",
) -> tuple[bool, Optional[Witness]]:
    """Decide: wherever the premise has strict sign prem_dir on the circle,
    the conclusion has non-strict sign concl_dir.

    Zeros and poles of the premise never activate it; zeros and poles of the
    conclusion never violate it (proxy value zero lands in the closed class).
    """
    violation = (prem_dir, -concl_dir)
    for name, x, signs in CircleChart((premise, conclusion)).samples():
        if signs == violation:
            return False, _witness_from_sample(condition, (name, x))
    return True, None


def circle_strict_interval(
    constraints: Sequence[tuple[TrigLike, int]], condition: str = ""
) -> Optional[StrictnessEvidence]:
    """A positive-length chart interval where every constraint keeps its
    requested strict sign, or None when no such interval exists anywhere (the
    chart cells are exhaustive, so None is a certificate of absence)."""
    chart = CircleChart([f for f, _ in constraints])
    dirs = tuple(d for _, d in constraints)
    for name, x, signs in chart.samples():
        if name != "point" and signs == dirs:
            lo, hi = chart.cells.gap(chart.cells.samples.index(x))
            return StrictnessEvidence(condition, name, lo, hi)
    return None


def _witness_from_sample(condition: str, sample: tuple) -> Witness:
    chart, coord = sample
    if chart == "point":
        return Witness(condition, "point", circle=coord)
    return Witness(condition, chart, point=coord)


def _sign_change_witnesses(label: str, rep: SignReport) -> list[Witness]:
    out = []
    if rep.positive_at is not None:
        out.append(_witness_from_sample(f"{label} > 0 here", rep.positive_at))
    if rep.negative_at is not None:
        out.append(_witness_from_sample(f"{label} < 0 here", rep.negative_at))
    return out


def _zero_witness(fp: TrigPoly, label: str) -> Optional[Witness]:
    """An isolating interval (or exact point) around a zero of fp."""
    chart = CircleChart((fp,))
    # fp is nonzero, and a 'tan2' piece has the roots of the 'tan' one
    if chart.cells.intervals:
        return Witness(label, chart.pieces[0][0], interval=chart.cells.intervals[0])
    for circle, (v,) in chart.points:
        if v == 0:
            return Witness(label, "point", circle=circle)
    return None


# --- one-parameter exact feasibility ---------------------------------------


@dataclass(frozen=True)
class FeasibilityOutcome:
    status: str  # "Feasible" | "Infeasible"
    value: Optional[Fraction] = None
    witnesses: tuple[Witness, ...] = ()
    note: str = ""


_DEFAULT_MULTIPLIERS = tuple(
    Fraction(*x)
    for x in (
        (0, 1),
        (-1, 1),
        (1, 1),
        (-1, 2),
        (1, 2),
        (-2, 1),
        (2, 1),
        (-3, 1),
        (3, 1),
        (-5, 1),
        (5, 1),
        (-10, 1),
        (10, 1),
    )
)


def _root_obstructions(
    pa: RationalPoly, pb: RationalPoly
) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals of real roots r of pb with pa(r) < 0 certified.

    At such r the value pa(r) + mu*pb(r) = pa(r) is negative for every mu, so
    the one-parameter family cannot be nonnegative there; each interval is an
    independent certificate.
    """
    if pa.is_zero or pb.degree <= 0:
        return []
    out = []
    g = pa.gcd(pb)
    for lo, hi in isolate_real_roots(pb):
        if g.degree > 0 and count_distinct_roots(g, lo, hi) > 0:
            continue  # common root: pa vanishes together with pb
        if hi - lo > Fraction(1, 8):
            lo, hi = refine_interval(pb, (lo, hi), Fraction(1, 8))
        while True:
            try:
                inside = count_distinct_roots(pa, lo, hi)
            except EndpointRootError:
                lo, hi = refine_interval(pb, (lo, hi), (hi - lo) / 4)
                continue
            if inside == 0:
                break
            lo, hi = refine_interval(pb, (lo, hi), (hi - lo) / 4)
        if pa.sign((lo + hi) / 2) < 0:
            out.append((lo, hi))
    return out


def linear_parameter_feasible(
    pa: RationalPoly,
    pb: RationalPoly,
    value_planes: Sequence[tuple[Fraction, Fraction, Optional[Witness]]] = (),
    chart: str = "half",
) -> FeasibilityOutcome:
    """Decide whether some rational mu makes pa + mu*pb >= 0 on all of R and
    va + mu*vb >= 0 for every value plane (va, vb, witness); a plane that
    comes from a circle point names it in its witness.

    Infeasibility is first certified by pa dominating at infinity with the
    wrong sign, or by roots of pb where pa < 0 (isolating-interval witnesses
    in `chart`). Then the candidates of _candidates are checked exactly in
    turn; the first that passes is the answer. Each failed candidate yields
    a counterexample point x, whose constraint pa(x) + mu*pb(x) >= 0 joins
    the planes in bounding mu; bounds that cross certify infeasibility with
    their two witnesses. Feasibility is constant on each cell the candidates
    sample, so when none passes, no rational mu does.
    """
    if not pa.is_zero:
        db = -1 if pb.is_zero else pb.degree
        if pa.degree > db and (pa.degree % 2 == 1 or pa.leading < 0):
            return FeasibilityOutcome(
                "Infeasible",
                note=(
                    "the multiplier-independent part dominates at infinity "
                    "with the wrong sign"
                ),
            )
    if not pb.is_zero:
        obstructions = tuple(
            Witness(
                "the multiplier coefficient vanishes here while the offset is negative",
                chart,
                interval=ob,
            )
            for ob in _root_obstructions(pa, pb)
        )
        if obstructions:
            return FeasibilityOutcome("Infeasible", witnesses=obstructions)

    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    lo_w: Optional[Witness] = None
    hi_w: Optional[Witness] = None

    def conflict() -> FeasibilityOutcome:
        wits = tuple(w for w in (lo_w, hi_w) if w is not None)
        return FeasibilityOutcome(
            "Infeasible",
            witnesses=wits,
            note="the sign constraints on the multiplier are contradictory",
        )

    def add(
        va: Fraction, vb: Fraction, wit: Optional[Witness]
    ) -> Optional[FeasibilityOutcome]:
        nonlocal lo, hi, lo_w, hi_w
        if vb == 0:
            if va < 0:
                return FeasibilityOutcome(
                    "Infeasible",
                    witnesses=(wit,) if wit is not None else (),
                    note="a constraint independent of the multiplier is violated",
                )
            return None
        bound = -va / vb
        if vb > 0:
            if lo is None or bound > lo:
                lo, lo_w = bound, wit
        else:
            if hi is None or bound < hi:
                hi, hi_w = bound, wit
        if lo is not None and hi is not None and lo > hi:
            return conflict()
        return None

    for va, vb, wit in value_planes:
        res = add(va, vb, wit)
        if res is not None:
            return res
    for mu in _candidates(pa, pb, value_planes):
        if (lo is not None and mu < lo) or (hi is not None and mu > hi):
            continue
        neg = sign_report_on_real_line(pa + pb.scale(mu))[2]
        if neg is None:
            return FeasibilityOutcome("Feasible", value=mu)
        res = add(
            pa.evaluate(neg),
            pb.evaluate(neg),
            Witness("exact counterexample sample", chart, point=neg),
        )
        if res is not None:
            return res
    return FeasibilityOutcome(
        "Infeasible",
        note="no critical multiplier and no cell between them satisfies every constraint",
    )


def _candidates(
    pa: RationalPoly,
    pb: RationalPoly,
    value_planes: Sequence[tuple[Fraction, Fraction, Optional[Witness]]],
) -> Iterator[Fraction]:
    """The default multipliers, then the rational real roots of
    _critical_multipliers in ascending order, then one rational point inside
    each open cell that its real roots cut; the roots are found only once
    the defaults are used up.

    A rational root p/q of the primitive squarefree part, with leading
    coefficient L, has q | L; two such rationals lie at least 1/L^2 apart,
    so once its isolating interval is narrower than 1/(2 L^2) the root is
    the fraction with denominator at most L nearest to the midpoint (Basu,
    Pollack & Roy, Algorithms in Real Algebraic Geometry, 2006)."""
    yield from _DEFAULT_MULTIPLIERS
    q = _critical_multipliers(pa, pb, value_planes).squarefree_part()
    lead = abs(q.ints[-1])
    cells = real_line_cells([q])
    for iv in cells.intervals:
        lo, hi = refine_interval(q, iv, Fraction(1, 2 * lead * lead))
        r = ((lo + hi) / 2).limit_denominator(lead)
        if q.sign(r) == 0:
            yield r
    yield from cells.samples


def _critical_multipliers(
    pa: RationalPoly,
    pb: RationalPoly,
    value_planes: Sequence[tuple[Fraction, Fraction, Optional[Witness]]],
) -> RationalPoly:
    """A nonzero polynomial in mu whose real roots cut R into open cells on
    each of which the feasibility of mu is constant.

    With g = gcd(pa, pb), a = pa/g and b = pb/g, pa + mu*pb = g*(a + mu*b).
    The sign pattern of this on R can change only where the top coefficient
    of a + mu*b vanishes, or where a + mu*b vanishes at a root of c, the
    squarefree part of (a'b - ab')*g: a double root of a + mu*b is a root of
    a'b - ab', and a root shared with g is a root of g. The second kind are
    the roots of R(mu) = prod over the roots x of c of (a(x) + mu*b(x)), of
    degree at most deg c, interpolated from its values at 0, 1, ..., deg c.
    A value plane changes sign only at its own root.
    """
    crit = RationalPoly.constant(1)
    for va, vb, _ in value_planes:
        if vb != 0:
            crit = crit * RationalPoly.from_coeffs([va, vb])
    if pb.is_zero:
        return crit
    g = pa.gcd(pb)
    a, b = pa.exact_div(g), pb.exact_div(g)
    d = max(a.degree, b.degree)
    top = [p.coeffs[d] if d <= p.degree else 0 for p in (a, b)]
    crit = crit * RationalPoly.from_coeffs(top)
    w = (a.derivative() * b - a * b.derivative()) * g
    if w.degree <= 0:
        return crit
    c = w.squarefree_part()
    values = [_root_product(c, a + b.scale(m)) for m in range(c.degree + 1)]
    return crit * _interpolate(values)


def _root_product(c: RationalPoly, f: RationalPoly) -> Fraction:
    """The product of f(x) over the complex roots x of c, with multiplicity:
    Res(c, f) / lc(c)^deg f, by the Euclidean recursion of the resultant."""
    out = Fraction(1)
    while c.degree > 0:
        f = f.divmod(c)[1]
        if f.is_zero:
            return Fraction(0)
        out *= (-1) ** (c.degree * f.degree) * f.leading**c.degree / c.leading**f.degree
        c, f = f, c
    return out


def _interpolate(values: Sequence[Fraction]) -> RationalPoly:
    """The polynomial of degree below len(values) that takes values[m] at
    m = 0, 1, ..., by Newton's divided differences."""
    coef = list(values)
    for j in range(1, len(coef)):
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / j
    out = RationalPoly.zero()
    for i in reversed(range(len(coef))):
        out = out * RationalPoly.from_coeffs([-i, 1]) + RationalPoly.constant(coef[i])
    return out


def definite_combination_feasible(
    base: TrigLike,
    multiplier: TrigLike,
    sign: int = 1,
    parameter_planes: Sequence[tuple[Fraction, Fraction]] = (),
) -> FeasibilityOutcome:
    """Decide whether some rational mu makes sign*(base + mu*multiplier) >= 0
    on the whole circle. Both functions must be pole-free; the decision runs
    on common-denominator half-angle numerators plus the point theta = pi.
    parameter_planes are extra constraints va + mu*vb >= 0 on mu alone."""
    # a trig polynomial has no pole, and its wrapper has the pair
    if not all(f.pole_free() for f in (base, multiplier) if isinstance(f, TrigRational)):
        raise ValueError("the combination test needs pole-free inputs")
    (pl, ql), (pm, qm) = (
        (f if isinstance(f, TrigRational) else TrigRational.from_poly(f)).half_angle_pair()
        for f in (base, multiplier)
    )
    g = ql.gcd(qm)
    ql_red = ql.exact_div(g) if g.degree > 0 else ql
    qm_red = qm.exact_div(g) if g.degree > 0 else qm
    # both denominators are root-free with positive leading coefficient, so
    # the common denominator ql*qm_red is positive on all of R
    na = (pl * qm_red).scale(sign)
    nb = (pm * ql_red).scale(sign)
    at_pi = (Fraction(-1), Fraction(0))
    planes = [
        (
            sign * _value_at_pi(pl, ql),
            sign * _value_at_pi(pm, qm),
            Witness("the combination at theta = pi", "point", circle=at_pi),
        )
    ]
    planes.extend((va, vb, None) for va, vb in parameter_planes)
    return linear_parameter_feasible(na, nb, planes)


# --- factored-equation criteria ---------------------------------------------

_RICCATI_NOTE = (
    "a2 is identically zero: the equation is a Riccati equation with at most "
    "one non-null limit cycle, and the cubic criteria do not apply"
)


def check_no_cycle(f: FactoredAbel, eta=Fraction(0)) -> CriterionVerdict:
    """No nontrivial limit cycle in region V when the sign conditions hold."""
    return _factored_criterion(f, as_fraction(eta), "no_cycle")


def check_at_most_one(f: FactoredAbel, eta=Fraction(0)) -> CriterionVerdict:
    """At most one nontrivial limit cycle in V (hyperbolic when it exists)."""
    return _factored_criterion(f, as_fraction(eta), "at_most_one")


def _condition_two(f: FactoredAbel, eta: Fraction) -> TrigRational:
    """a1*b2 - a2 + eta*a1', the quantity conditioned where a1 > 0."""
    a1r = TrigRational.from_poly(f.a1)
    tail = TrigRational.from_poly(f.a1.derivative()).scale(eta)
    return a1r * f.b2 - f.a2 + tail


def _factored_criterion(f: FactoredAbel, eta: Fraction, cid: str) -> CriterionVerdict:
    bound = Bound.NO_CYCLE if cid == "no_cycle" else Bound.AT_MOST_ONE
    if riccati_bound_applies(f):
        return CriterionVerdict(cid, Outcome.INAPPLICABLE, eta=eta, notes=_RICCATI_NOTE)
    if cid == "at_most_one" and f.b2.is_zero:
        return CriterionVerdict(
            cid,
            Outcome.INAPPLICABLE,
            eta=eta,
            notes="b2 is identically zero, which this criterion excludes",
        )
    h = cancel_pole_combination(f.b2, f.a1, eta)
    if has_odd_order_pole(h):
        return CriterionVerdict(
            cid,
            Outcome.INAPPLICABLE,
            eta=eta,
            notes=(
                f"b2 + ({eta}) a1'/a1 keeps an odd-order pole, so its sign "
                "cannot be definite; try the multipliers from eta_candidates"
            ),
        )
    hrep = definite_sign_report(h)
    branches = []
    if hrep.sign.is_nonnegative:
        branches.append(Branch.POSITIVE)
    if hrep.sign.is_nonpositive:
        branches.append(Branch.NEGATIVE)
    if not branches:
        return CriterionVerdict(
            cid,
            Outcome.FAILS,
            eta=eta,
            witnesses=tuple(
                _sign_change_witnesses(f"b2 + ({eta}) a1'/a1", hrep)
            ),
            notes="the combination b2 + eta a1'/a1 is not sign definite",
        )
    region = classify_region(f)
    violated = "a sign condition is violated at the listed witnesses"
    return _sign_conditions(
        cid,
        bound,
        branches,
        (f.a1, f.a2, _condition_two(f, eta)),
        ("a1", "a2", "a1 b2 - a2 + eta a1'"),
        cid == "no_cycle" and region.kind is RegionKind.A1_NEGATIVE,
        eta,
        _Notes(
            holds=_region_notes(region.kind, cid),
            violated=violated,
            not_global=violated,
            neutral=(
                "a1 < 0 on the whole circle and a1 b2 - a2 + eta a1' is "
                "identically zero, so the invariant curve x = 1/a1 is a "
                "neutral cycle and cannot repel its component of V"
            ),
            equality_only=(
                "the sign conditions never hold strictly on an interval, so "
                "the positive-measure strictness requirement cannot be met"
            ),
        ),
    )


class _Notes(NamedTuple):
    """The notes of each verdict that _sign_conditions can reach."""

    holds: str
    violated: str  # an implication fails
    not_global: str  # the whole-circle requirement fails on some branch
    neutral: str
    equality_only: str


def _sign_conditions(
    cid: str,
    bound: Bound,
    branches: Sequence[Branch],
    functions: tuple[TrigPoly, TrigLike, TrigLike],
    names: tuple[str, str, str],
    two_sided: bool,
    eta: Fraction,
    notes: _Notes,
) -> CriterionVerdict:
    """The sign conditions of the paper's criterion, on functions (p, f1, f2)
    labelled by names in every witness and strictness condition.

    On a branch of sign sigma, p < 0 must imply f1 of sign -sigma (no cycle)
    or sigma (at most one), p > 0 must imply f2 of sign sigma, and one of the
    two must hold strictly on an interval. The factored criterion passes
    (a1, a2, a1 b2 - a2 + eta a1'). The planar one passes (psi, a psi - phi,
    phi): at eta = -1 the factored triple of the system's Cherkas transform
    is n - 1 times this one.

    two_sided: with p < 0 on the whole circle, V has a second component
    below the invariant curve x = 1/p. Excluding cycles there rides on the
    curve itself being a hyperbolic cycle, whose multiplier exponent is
    int f2 * (-1/p) dt: f2 must then keep its sign on the whole circle (its
    p > 0 premise is empty) and hold it strictly somewhere, else the
    exclusion argument has no teeth.
    """
    p, f1, f2 = functions
    pn, f1n, f2n = names
    fail_witnesses: list[Witness] = []
    fail_note = notes.violated
    equality_only = False
    curve_neutral = False
    for branch in branches:
        sigma = 1 if branch is Branch.POSITIVE else -1
        dir_i = -sigma if bound is Bound.NO_CYCLE else sigma
        cmp_i = "<= 0" if dir_i < 0 else ">= 0"
        cmp_ii = ">= 0" if sigma > 0 else "<= 0"
        ok_i, w_i = circle_implication(
            p, -1, f1, dir_i, f"{pn} < 0 implies {f1n} {cmp_i}"
        )
        ok_ii, w_ii = circle_implication(
            p, 1, f2, sigma, f"{pn} > 0 implies {f2n} {cmp_ii}"
        )
        if not (ok_i and ok_ii):
            fail_witnesses.extend(w for w in (w_i, w_ii) if w is not None)
            continue
        if two_sided:
            ok_g, w_g = circle_implication(
                TrigPoly.constant(1),
                1,
                f2,
                sigma,
                f"{pn} < 0 everywhere requires {f2n} {cmp_ii} on the whole circle",
            )
            if not ok_g:
                fail_witnesses.append(w_g)
                fail_note = notes.not_global
                continue
            if circle_strict_interval(
                [(f2, sigma)], f"{f2n} {'>' if sigma > 0 else '<'} 0 strictly"
            ) is None:
                curve_neutral = True
                continue
        ev = circle_strict_interval(
            [(p, -1), (f1, dir_i)],
            f"{pn} < 0 and {f1n} {'<' if dir_i < 0 else '>'} 0 strictly",
        )
        if ev is None:
            ev = circle_strict_interval(
                [(p, 1), (f2, sigma)],
                f"{pn} > 0 and {f2n} {'>' if sigma > 0 else '<'} 0 strictly",
            )
        if ev is None:
            equality_only = True
            continue
        return CriterionVerdict(
            cid,
            Outcome.HOLDS,
            bound=bound,
            branch=branch,
            eta=eta,
            strictness=ev,
            notes=notes.holds,
        )
    if fail_witnesses:
        return CriterionVerdict(
            cid,
            Outcome.FAILS,
            eta=eta,
            witnesses=tuple(fail_witnesses),
            notes=fail_note,
        )
    if curve_neutral:
        return CriterionVerdict(cid, Outcome.INAPPLICABLE, eta=eta, notes=notes.neutral)
    if equality_only:
        return CriterionVerdict(
            cid, Outcome.INAPPLICABLE, eta=eta, notes=notes.equality_only
        )
    raise AssertionError("unreachable: some branch must conclude")


def _region_notes(kind: RegionKind, cid: str) -> str:
    note = f"region: {kind.value}"
    if kind is RegionKind.A1_NEGATIVE:
        if cid == "no_cycle":
            note += (
                "; a1 < 0 on the whole circle, so the second condition was "
                "required globally: it makes the invariant curve x = 1/a1 a "
                "hyperbolic cycle repelling the lower component of V, while "
                "the definite sign of a2 guards the upper one"
            )
        else:
            note += (
                "; a1 < 0 on the whole circle, so the premise of the second "
                "condition is empty and the bound rides on the definite sign "
                "of a2 over both components of V"
            )
    return note


def check_definite_a2(f: FactoredAbel) -> CriterionVerdict:
    """One-signed a2 (strict on an interval) bounds the count by one on its
    own, for any region shape."""
    cid = "definite_a2"
    if riccati_bound_applies(f):
        return CriterionVerdict(cid, Outcome.INAPPLICABLE, notes=_RICCATI_NOTE)
    rep = definite_sign_report(f.a2)
    if rep.sign.is_nonnegative or rep.sign.is_nonpositive:
        branch = Branch.POSITIVE if rep.sign.is_nonnegative else Branch.NEGATIVE
        direction = 1 if branch is Branch.POSITIVE else -1
        ev = circle_strict_interval(
            [(f.a2, direction)], f"a2 {'>' if direction > 0 else '<'} 0 strictly"
        )
        if ev is None:
            return CriterionVerdict(
                cid,
                Outcome.INAPPLICABLE,
                notes="a2 is one-signed but vanishes off a null set",
            )
        return CriterionVerdict(
            cid,
            Outcome.HOLDS,
            bound=Bound.AT_MOST_ONE,
            branch=branch,
            strictness=ev,
            notes="a2 keeps one sign over the whole period",
        )
    return CriterionVerdict(
        cid,
        Outcome.FAILS,
        witnesses=tuple(_sign_change_witnesses("a2", rep)),
        notes="a2 changes sign",
    )


# --- normalized-form criterion ----------------------------------------------


def check_normalized(f: FactoredAbel) -> CriterionVerdict:
    """Normalized-form bound: Holds (AtMostOne) when any of the following is
    certified: (i) a1 never vanishes and some eta makes a1*b2 + eta*a2 sign
    definite; (ii) a2 keeps one sign; (iii) a1*a2 and b2 - a1'/a1 keep
    opposite (non-strict) signs.

    Fails only when all three are certifiably false; the eta question is
    decided exactly (see linear_parameter_feasible).
    """
    cid = "normalized_bound"
    # the normal form with multiplier b1 = 1 has b2n = b2 - a1'/a1, which is
    # C1; the witness labels' "b1*b2" names it
    b2n = f.c1
    if not (f.a2.pole_free() and b2n.pole_free()):
        return CriterionVerdict(
            cid,
            Outcome.INAPPLICABLE,
            notes="a2 or b2 has poles in normalized form; the criterion needs pole-free data",
        )

    held: list[str] = []
    witnesses: list[Witness] = []
    eta_val: Optional[Fraction] = None
    branch: Optional[Branch] = None

    rep2 = definite_sign_report(f.a2)
    if rep2.sign.is_nonnegative or rep2.sign.is_nonpositive:
        held.append("(ii) a2 keeps one sign")
    else:
        witnesses.extend(_sign_change_witnesses("a2", rep2))

    rep_g1 = definite_sign_report(f.c3)
    rep_g2 = definite_sign_report(b2n)
    if (rep_g1.sign.is_nonnegative and rep_g2.sign.is_nonpositive) or (
        rep_g1.sign.is_nonpositive and rep_g2.sign.is_nonnegative
    ):
        held.append("(iii) a1*a2 and b1*b2 keep opposite signs")
    else:
        witnesses.extend(_sign_change_witnesses("a1*a2", rep_g1))
        witnesses.extend(_sign_change_witnesses("b1*b2", rep_g2))

    rep1 = definite_sign_report(f.a1)
    if not rep1.sign.is_strict:
        if rep1.sign is SignOnSet.MIXED:
            witnesses.extend(_sign_change_witnesses("a1", rep1))
        zw = _zero_witness(f.a1, "a1 = 0 inside this interval")
        if zw is not None:
            witnesses.append(zw)
    else:
        # a1*b2n + a1' is a1*b2
        base = TrigRational.from_poly(f.a1) * f.b2
        refuted: list[Witness] = []
        for br, sign in ((Branch.POSITIVE, 1), (Branch.NEGATIVE, -1)):
            out = definite_combination_feasible(base, f.a2, sign)
            if out.status == "Feasible":
                held.append(
                    "(i) a1 never vanishes and the eta-combination keeps one sign"
                )
                eta_val, branch = out.value, br
                break
            refuted.extend(out.witnesses)
        else:
            witnesses.extend(refuted)

    if held:
        return CriterionVerdict(
            cid,
            Outcome.HOLDS,
            bound=Bound.AT_MOST_ONE,
            branch=branch,
            eta=eta_val,
            notes="satisfied: " + "; ".join(held),
        )
    return CriterionVerdict(
        cid,
        Outcome.FAILS,
        witnesses=tuple(witnesses),
        notes="all three conditions fail",
    )


# --- planar homogeneous criteria ---------------------------------------------


def check_planar_no_cycle(sys: HomogeneousSystem) -> CriterionVerdict:
    """No limit cycle surrounding the origin when the phi/psi sign conditions
    hold; branch fixed by the sign of a."""
    return _planar_criterion(sys, "planar_no_cycle")


def check_planar_at_most_one(sys: HomogeneousSystem) -> CriterionVerdict:
    """At most one limit cycle surrounding the origin; same structure with the
    first condition flipped."""
    return _planar_criterion(sys, "planar_at_most_one")


def _planar_criterion(sys: HomogeneousSystem, cid: str) -> CriterionVerdict:
    bound = Bound.NO_CYCLE if cid == "planar_no_cycle" else Bound.AT_MOST_ONE
    if sys.a == 0:
        return CriterionVerdict(
            cid, Outcome.INAPPLICABLE, notes="the trace parameter a must be nonzero"
        )
    psi = sys.psi()
    phi = sys.phi()
    if psi.is_zero:
        return CriterionVerdict(
            cid,
            Outcome.INAPPLICABLE,
            notes=(
                "psi is identically zero: the radial equation is a Riccati "
                "equation with at most one non-null limit cycle"
            ),
        )
    omega = psi.scale(sys.a) - phi
    if omega.is_zero:
        return CriterionVerdict(
            cid,
            Outcome.INAPPLICABLE,
            notes=(
                "a*psi - phi is identically zero, so the reduced equation is "
                "Riccati with at most one non-null cycle"
            ),
        )
    forced = f"branch forced by a = {sys.a}"
    v = _sign_conditions(
        cid,
        bound,
        [Branch.POSITIVE if sys.a > 0 else Branch.NEGATIVE],
        (psi, omega, phi),
        ("psi", "a psi - phi", "phi"),
        cid == "planar_no_cycle"
        and definite_sign_report(psi).sign is SignOnSet.STRICTLY_NEGATIVE,
        Fraction(-1),
        _Notes(
            holds=f"branch fixed by the sign of a = {sys.a}",
            violated=f"a sign condition is violated ({forced})",
            not_global=(
                f"psi < 0 on the whole circle, so phi must keep one sign "
                f"everywhere ({forced})"
            ),
            neutral=(
                "psi < 0 on the whole circle and phi is identically "
                "zero, so the curve psi*rho = 1 is a neutral cycle and "
                "cannot repel its component"
            ),
            equality_only="the sign conditions never hold strictly on an interval",
        ),
    )
    return replace(v, eta=None) if v.outcome is Outcome.INAPPLICABLE else v


# --- obstruction certificates ------------------------------------------------


@dataclass(frozen=True)
class ObstructionCheck:
    """holds=True: certified that no combination of the checked family has
    definite sign; holds=False: some combination works (or the data is
    degenerate)."""

    check: str
    holds: bool
    witnesses: tuple[Witness, ...] = ()
    note: str = ""

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "holds": self.holds,
            "witnesses": [w.to_json() for w in self.witnesses],
            "note": self.note,
        }


@dataclass(frozen=True)
class ObstructionReport:
    checks: tuple[ObstructionCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)

    def to_json(self) -> dict:
        return {
            "all_hold": self.all_hold,
            "checks": [c.to_json() for c in self.checks],
        }


def obstruction_report(sys: HomogeneousSystem) -> ObstructionReport:
    """Five exact certificates that no sign-combination route applies to the
    system: chart-polynomial combinations, weighted products, and the
    individual pieces are all indefinite."""
    psi = sys.psi()
    phi = sys.phi()
    m = sys.n - 1
    omega1 = psi.scale(sys.a) - phi
    omega2 = (psi.scale(2 * sys.a) - phi).scale(m) + psi.derivative()
    checks = (
        _chart_combination_check(omega1, omega2),
        _weighted_product_check(sys.a, omega1, psi, phi),
        _indefinite_parts_check(
            "parts_indefinite",
            [("a psi - phi", omega1), ("offset part", omega2)],
        ),
        _indefinite_parts_check(
            "offset_combinations_indefinite",
            [
                ("second part minus (n-1) times first", omega2 - omega1.scale(m)),
                ("second part minus 2(n-1) times first", omega2 - omega1.scale(2 * m)),
            ],
        ),
        _indefinite_parts_check(
            "product_parts_indefinite",
            [
                ("a (a psi - phi) psi", (omega1 * psi).scale(sys.a)),
                ("(a psi - phi) phi", omega1 * phi),
            ],
        ),
    )
    return ObstructionReport(checks)


def _indefinite_parts_check(
    check_id: str, labeled: Sequence[tuple[str, TrigPoly]]
) -> ObstructionCheck:
    witnesses: list[Witness] = []
    degenerate: list[str] = []
    for label, fp in labeled:
        rep = definite_sign_report(fp)
        if rep.sign is SignOnSet.MIXED:
            witnesses.extend(_sign_change_witnesses(label, rep))
        else:
            degenerate.append(f"{label} has definite sign {rep.sign.value}")
    if degenerate:
        return ObstructionCheck(check_id, False, note="; ".join(degenerate))
    return ObstructionCheck(
        check_id, True, tuple(witnesses), "every part changes sign"
    )


def _chart_combination_check(omega1: TrigPoly, omega2: TrigPoly) -> ObstructionCheck:
    """No real combination mu1*P1 + mu2*P2 of the two chart polynomials keeps
    one sign on the real line."""
    check_id = "chart_combination"
    if omega1.is_zero or omega2.is_zero:
        return ObstructionCheck(
            check_id, False, note="a part vanishes identically (degenerate)"
        )
    chart, (p1, p2) = CircleChart((omega1, omega2)).pieces[0]
    s1 = sign_report_on_real_line(p1)[0]
    if s1 is not SignOnSet.MIXED:
        return ObstructionCheck(
            check_id,
            False,
            note=f"the first chart polynomial alone has sign {s1.value}",
        )
    up = linear_parameter_feasible(p2, p1, chart=chart)
    if up.status == "Feasible":
        return ObstructionCheck(
            check_id, False, note=f"P2 + ({up.value}) P1 is nonnegative"
        )
    down = linear_parameter_feasible(p2.scale(-1), p1.scale(-1), chart=chart)
    if down.status == "Feasible":
        return ObstructionCheck(
            check_id, False, note=f"P2 + ({down.value}) P1 is nonpositive"
        )
    return ObstructionCheck(
        check_id,
        True,
        up.witnesses + down.witnesses,
        "no combination of the chart polynomials keeps one sign",
    )


def _weighted_product_check(
    a: Fraction, omega1: TrigPoly, psi: TrigPoly, phi: TrigPoly
) -> ObstructionCheck:
    """No admissible weights nu1, nu2 >= 0 (not both trivial) make
    (a psi - phi) * (nu1 a psi - nu2 phi) nonpositive on the circle."""
    check_id = "weighted_product"
    t_phi = omega1 * phi
    rep_b = definite_sign_report(t_phi)
    if rep_b.sign.is_nonnegative:
        return ObstructionCheck(
            check_id,
            False,
            note="(a psi - phi) phi is nonnegative, so the phi-only weight works",
        )
    wit_b: list[Witness] = []
    if rep_b.negative_at is not None:
        wit_b.append(
            _witness_from_sample("(a psi - phi) phi < 0 here", rep_b.negative_at)
        )
    if a == 0:
        return ObstructionCheck(
            check_id,
            True,
            tuple(wit_b),
            "a = 0 leaves only the phi weight, and it fails",
        )
    base = (omega1 * psi).scale(-a)
    out = definite_combination_feasible(
        base, t_phi, 1, parameter_planes=[(Fraction(0), Fraction(1))]
    )
    if out.status == "Feasible":
        return ObstructionCheck(
            check_id,
            False,
            note=f"weights nu1 = 1, nu2 = {out.value} make the product nonpositive",
        )
    return ObstructionCheck(
        check_id,
        True,
        tuple(wit_b) + out.witnesses,
        "no admissible weights make the product one-signed",
    )


# --- eta sweep -----------------------------------------------------------------


def eta_candidates(f: FactoredAbel) -> list[Fraction]:
    """Rational multipliers worth trying in b2 + eta*a1'/a1: the standard
    {-1, 0, 1} plus any eta that cancels every odd-order pole (matched on the
    half-angle chart and on its half-period rotation, so the point theta = pi
    is covered)."""
    found = {Fraction(-1), Fraction(0), Fraction(1)}
    pairs = (f.b2.half_angle_pair(), f.log_deriv_a1().half_angle_pair())
    for b2, ld in (pairs, tuple(_half_turn(*pair) for pair in pairs)):
        eta = _pole_matching_eta(b2, ld)
        if eta is not None and eta not in found:
            if not has_odd_order_pole(cancel_pole_combination(f.b2, f.a1, eta)):
                found.add(eta)
    return sorted(found)


def best_over_etas(
    check: Callable[[FactoredAbel, Fraction], CriterionVerdict],
    f: FactoredAbel,
    etas: Sequence[Fraction],
) -> CriterionVerdict:
    """check(f, eta) over etas in order: the first Holds ends the search;
    otherwise a certified failure is preferred over an inapplicable shrug,
    the first of its kind winning."""
    fallback: Optional[CriterionVerdict] = None
    for eta in etas:
        v = check(f, eta)
        if v.outcome is Outcome.HOLDS:
            return v
        if fallback is None or (
            v.outcome is Outcome.FAILS and fallback.outcome is not Outcome.FAILS
        ):
            fallback = v
    if fallback is None:
        raise ValueError("best_over_etas needs at least one eta")
    return fallback


def _pole_matching_eta(
    b2: tuple[RationalPoly, RationalPoly], log_deriv: tuple[RationalPoly, RationalPoly]
) -> Optional[Fraction]:
    """The unique eta with numerator(b2) + eta*numerator(log-derivative)
    divisible by the odd-multiplicity part of the common chart denominator,
    when such an eta exists. Each argument is a coprime half-angle pair; the
    eta does not change when a pair is scaled by a constant."""
    nb, db = b2
    na, da = log_deriv
    g = db.gcd(da)
    da_red = da.exact_div(g) if g.degree > 0 else da
    db_red = db.exact_div(g) if g.degree > 0 else db
    denom = db * da_red
    target = denom.odd_multiplicity_part()
    if target.degree <= 0:
        return None
    ra = (nb * da_red).divmod(target)[1]
    rb = (na * db_red).divmod(target)[1]
    if rb.is_zero:
        return None
    if ra.is_zero:
        return Fraction(0)
    k = next(i for i, c in enumerate(rb.coeffs) if c != 0)
    num = ra.coeffs[k] if k < len(ra.coeffs) else Fraction(0)
    eta = -num / rb.coeffs[k]
    if (ra + rb.scale(eta)).is_zero:
        return eta
    return None
