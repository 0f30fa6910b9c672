"""Command-line front end: criterion checks, transforms, displacement-map
sweeps, and one-command re-derivation of the gallery systems.

Exit codes: 0 when some criterion holds (or the requested action succeeded),
1 when every attempted criterion fails (or a reproduction mismatch), 2 for
inapplicable-only results, schema violations, and usage errors. All JSON
output is key-sorted, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .abel import (
    AbelEquation,
    FactoredAbel,
    InvarianceError,
    factor_through_invariant,
)
from .criteria import (
    CriterionVerdict,
    Outcome,
    best_over_etas,
    check_at_most_one,
    check_definite_a2,
    check_no_cycle,
    check_normalized,
    check_planar_at_most_one,
    check_planar_no_cycle,
    eta_candidates,
    obstruction_report,
)
from .gallery import reproduce
from .oracle_config import DEFAULT_GRID, MAX_GRID, IntegratorConfig
from .planar import (
    HomogeneousSystem,
    PlanarPolySystem,
    RiccatiRouteError,
    RigidStructureError,
    cherkas_transform,
    detect_rigid,
    rigid_to_abel,
)
from .poly import as_fraction, exact_cache
from .serialize import ParsedInput, SchemaError, dumps, load_input

# the oracle, and numpy with it, is imported only by the calls that sweep
if TYPE_CHECKING:
    from .oracle import DisplacementSample

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_INAPPLICABLE = 2

FACTORED_CRITERIA = ("no_cycle", "at_most_one", "definite_a2", "normalized_bound")
PLANAR_CRITERIA = ("planar_no_cycle", "planar_at_most_one")


@dataclass(frozen=True)
class RunConfig:
    input: Optional[str] = None
    criteria: Optional[tuple[str, ...]] = None
    eta: Optional[Fraction] = None
    grid: int = DEFAULT_GRID
    rtol: float = IntegratorConfig.rtol
    atol: float = IntegratorConfig.atol
    out: Optional[str] = None


class UsageError(ValueError):
    pass


# the errors of reading and reducing an input, each reported as exit 2
INPUT_ERRORS = (SchemaError, UsageError, OSError, RigidStructureError,
                RiccatiRouteError, InvarianceError, ValueError)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INAPPLICABLE


def _emit(text: str, code: int, out: Optional[str], saved: Optional[str] = None,
          samples: Optional[Sequence[DisplacementSample]] = None) -> int:
    """Write saved (by default text) to out, and the samples' CSV beside it,
    then text to stdout, and return code. A file that cannot be written
    ends with exit 2 and nothing on stdout."""
    if out:
        try:
            with open(out, "w") as handle:
                handle.write(text if saved is None else saved)
            if samples is not None:
                from .oracle import write_displacement_csv

                write_displacement_csv(samples, out.removesuffix(".json") + ".csv")
        except OSError as exc:
            return _fail(str(exc))
    sys.stdout.write(text)
    return code


def _resolve_factored(parsed: ParsedInput) -> FactoredAbel:
    """Reduce any input schema to the factored form (raises UsageError when
    the route needs an a1 candidate that was not supplied)."""
    if isinstance(parsed.model, FactoredAbel):
        return parsed.model
    if isinstance(parsed.model, HomogeneousSystem):
        return cherkas_transform(parsed.model)
    if isinstance(parsed.model, PlanarPolySystem):
        rigid = detect_rigid(parsed.model)
        eq = rigid_to_abel(rigid)
        if parsed.a1_candidate is None:
            raise UsageError(
                "the rigid route needs an \"a1\" candidate in the input to "
                "factor through an invariant curve"
            )
        return factor_through_invariant(eq, parsed.a1_candidate)
    # plain cubic coefficients
    eq = parsed.model
    if parsed.a1_candidate is None:
        raise UsageError(
            "cubic-coefficient input needs an \"a1\" candidate to factor "
            "through an invariant curve"
        )
    return factor_through_invariant(eq, parsed.a1_candidate)


def _eta_pool(f: FactoredAbel, override: Optional[Fraction]) -> list[Fraction]:
    if override is not None:
        return [override]
    return eta_candidates(f)


def _run_criteria(
    parsed: ParsedInput, cfg: RunConfig
) -> tuple[list[CriterionVerdict], Optional[dict], dict]:
    """Returns (verdicts, obstruction report json or None, equation json)."""
    requested = cfg.criteria
    verdicts: list[CriterionVerdict] = []
    obstructions = None
    if isinstance(parsed.model, HomogeneousSystem):
        wanted = requested or PLANAR_CRITERIA
        known = set(PLANAR_CRITERIA) | set(FACTORED_CRITERIA) | {"obstructions"}
        bad = [c for c in wanted if c not in known]
        if bad:
            raise UsageError(f"unknown criteria: {', '.join(bad)}")
        if "planar_no_cycle" in wanted:
            verdicts.append(check_planar_no_cycle(parsed.model))
        if "planar_at_most_one" in wanted:
            verdicts.append(check_planar_at_most_one(parsed.model))
        factored_wanted = [c for c in wanted if c in FACTORED_CRITERIA]
        if factored_wanted:
            f = cherkas_transform(parsed.model)
            verdicts.extend(_factored_verdicts(f, tuple(factored_wanted), cfg))
        if requested is None or "obstructions" in wanted:
            obstructions = obstruction_report(parsed.model).to_json()
        return verdicts, obstructions, parsed.model.to_json()
    f = _resolve_factored(parsed)
    wanted = requested or FACTORED_CRITERIA
    bad = [c for c in wanted if c not in FACTORED_CRITERIA]
    if bad:
        raise UsageError(f"unknown criteria: {', '.join(bad)}")
    verdicts.extend(_factored_verdicts(f, tuple(wanted), cfg))
    return verdicts, None, f.to_json()


def _factored_verdicts(
    f: FactoredAbel, wanted: tuple[str, ...], cfg: RunConfig
) -> list[CriterionVerdict]:
    etas = _eta_pool(f, cfg.eta)
    out = []
    if "no_cycle" in wanted:
        out.append(best_over_etas(check_no_cycle, f, etas))
    if "at_most_one" in wanted:
        out.append(best_over_etas(check_at_most_one, f, etas))
    if "definite_a2" in wanted:
        out.append(check_definite_a2(f))
    if "normalized_bound" in wanted:
        out.append(check_normalized(f))
    return out


def _exit_from_verdicts(verdicts: Sequence[CriterionVerdict]) -> int:
    if any(v.outcome is Outcome.HOLDS for v in verdicts):
        return EXIT_HOLDS
    if any(v.outcome is Outcome.FAILS for v in verdicts):
        return EXIT_FAILS
    return EXIT_INAPPLICABLE


def cmd_check(cfg: RunConfig) -> int:
    if cfg.input is None:
        return _fail("--input is required")
    try:
        parsed = load_input(cfg.input)
        verdicts, obstructions, equation = _run_criteria(parsed, cfg)
    except INPUT_ERRORS as exc:
        return _fail(str(exc))
    code = _exit_from_verdicts(verdicts)
    bundle = {
        "schema": parsed.kind,
        "equation": equation,
        "verdicts": [v.to_json() for v in verdicts],
        "exit": code,
    }
    if obstructions is not None:
        bundle["obstructions"] = obstructions
    return _emit(dumps(bundle), code, cfg.out)


def cmd_transform(cfg: RunConfig) -> int:
    if cfg.input is None:
        return _fail("--input is required")
    try:
        parsed = load_input(cfg.input)
        if isinstance(parsed.model, AbelEquation) and parsed.a1_candidate is None:
            data = parsed.model.to_json()
        else:
            data = _resolve_factored(parsed).to_json()
    except InvarianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"residual: {exc.residual.to_json()}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except INPUT_ERRORS as exc:
        return _fail(str(exc))
    return _emit(dumps(data), EXIT_HOLDS, cfg.out)


def cmd_oracle(cfg: RunConfig) -> int:
    from .oracle import _check_float_range, count_cycles_in_V

    if cfg.input is None:
        return _fail("--input is required")
    try:
        parsed = load_input(cfg.input)
        f = _resolve_factored(parsed)
        _check_float_range(f)
        icfg = IntegratorConfig(rtol=cfg.rtol, atol=cfg.atol)
    except INPUT_ERRORS as exc:
        return _fail(str(exc))
    report = count_cycles_in_V(f, icfg, grid_density=cfg.grid)
    return _emit(dumps(report.to_json()), EXIT_HOLDS, cfg.out, samples=report.samples)


def cmd_reproduce(example_id: str, out: Optional[str] = None) -> int:
    try:
        report = reproduce(example_id)
    except KeyError as exc:
        return _fail(str(exc))
    width = max(len(line.name) for line in report.lines)
    table = []
    for line in report.lines:
        status = "PASS" if line.passed else "FAIL"
        suffix = f"  [{line.detail}]" if line.detail else ""
        table.append(f"{status}  {line.name.ljust(width)}{suffix}\n")
    table.append(f"{'ok' if report.ok else 'MISMATCH'}: {example_id}\n")
    code = EXIT_HOLDS if report.ok else EXIT_FAILS
    return _emit("".join(table), code, out, saved=dumps(report.to_json()))


_OPTIONS = {
    "--input": dict(help="path to a JSON system/equation"),
    "--criteria": dict(help="comma-separated criterion ids"),
    "--eta": dict(help="multiplier as an exact rational, e.g. -1 or 3/2"),
    "--grid": dict(type=int, default=RunConfig.grid,
                   help=f"grid points per component, 1 to {MAX_GRID}"),
    "--rtol": dict(type=float, default=RunConfig.rtol,
                   help="relative tolerance, positive and finite"),
    "--atol": dict(type=float, default=RunConfig.atol,
                   help="absolute tolerance, positive and finite"),
    "--out": dict(help="also write the JSON output here"),
}

# each subcommand takes only the options it reads
_SUBCOMMAND_OPTIONS = {
    "check": ("--input", "--criteria", "--eta", "--out"),
    "transform": ("--input", "--out"),
    "oracle": ("--input", "--grid", "--rtol", "--atol", "--out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abel-cycles",
        description="limit-cycle bounds for periodic Abel equations with two "
        "invariant curves, checked exactly and cross-checked numerically",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _SUBCOMMAND_OPTIONS.items():
        p = sub.add_parser(name)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
    rep = sub.add_parser("reproduce")
    rep.add_argument("example", help="example1 or example2")
    rep.add_argument("--out", help="also write the JSON report here")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The subcommand's options; those it does not take keep the defaults."""
    known = {f.name for f in fields(RunConfig)}
    opts = {k: v for k, v in vars(args).items() if k in known}
    if opts.get("criteria"):
        opts["criteria"] = tuple(
            c.strip() for c in opts["criteria"].split(",") if c.strip()
        )
    else:
        opts.pop("criteria", None)
    if opts.get("eta") is not None:
        try:
            opts["eta"] = as_fraction(opts["eta"])
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad --eta value {opts['eta']!r}: {exc}") from exc
    if not 1 <= opts.get("grid", 1) <= MAX_GRID:
        raise UsageError(f"--grid must be between 1 and {MAX_GRID}, got {opts['grid']}")
    return RunConfig(**opts)


# built once: a parser is a web of reference cycles, and parsing leaves it
# unchanged
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    # one run scope per call, so no call reuses another's exact work
    with exact_cache():
        args = _PARSER.parse_args(argv)
        if args.command == "reproduce":
            return cmd_reproduce(args.example, args.out)
        try:
            cfg = _config_from_args(args)
        except UsageError as exc:
            return _fail(str(exc))
        if args.command == "check":
            return cmd_check(cfg)
        if args.command == "transform":
            return cmd_transform(cfg)
        return cmd_oracle(cfg)


if __name__ == "__main__":
    sys.exit(main())
