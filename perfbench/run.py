"""Benchmark of the `abel-cycles` command line: certify, sweep and locate.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The program is imported from `src/` of that
checkout and driven in-process through `abelcycles.cli.main`, one command
line per op, with its standard output captured. The seed makes the input
pool; the program only sees the generated files. `--seconds` fixes how many
whole passes over the pool a run makes (see `PASS_SECONDS`); the run has no
time box, so two runs with the same arguments do the same work.

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the public names
of every module of the program and prints the per-layer metrics instead.
The last line of standard output is one JSON object. See README.md.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("certify", "sweep", "locate")
# wall seconds of one pass over each pool on the reference machine; a run
# makes round(seconds / PASS_SECONDS) passes, at least one
PASS_SECONDS = {"certify": 16.0, "sweep": 22.0, "locate": 22.0}
TAIL_BEYOND = 10


def _fail(message: str) -> "None":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    if not (ROOT / "src" / "abelcycles" / "cli.py").is_file():
        _fail(f"no program source under {ROOT / 'src'}; run from a checkout")
    os.environ.pop("ABEL_CYCLES_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import abelcycles.cli  # noqa: F401
    import pools  # noqa: F401


def run_op(op) -> dict:
    """Run one command line in-process; an exception is a failed op."""
    out, err = io.StringIO(), io.StringIO()
    from abelcycles.cli import main

    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(op.argv)
        except (Exception, SystemExit) as exc:  # the op failed; keep going
            error = f"{type(exc).__name__}: {exc}"
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "error": error}


def _interleave(seeded: list, fixed: list) -> list:
    """Spread the fixed ops evenly through the seeded ones."""
    out = list(seeded)
    step = len(seeded) / (len(fixed) + 1)
    for i, op in reversed(list(enumerate(fixed))):
        out.insert(round((i + 1) * step), op)
    return out


def build_pool(workload: str, seed: int, workdir: Path):
    """Returns (ops, seconds spent), where seconds spent counts the seeded
    part as CHUNKS times the median chunk."""
    import pools

    t = time.perf_counter()
    fixed = pools.fixed_ops(workload, workdir)
    fixed_s = time.perf_counter() - t
    seeded, chunk_s = [], []
    for k in range(pools.CHUNKS):
        t = time.perf_counter()
        seeded += pools.build_chunk(workload, seed, k, workdir)
        chunk_s.append(time.perf_counter() - t)
    return _interleave(seeded, fixed), fixed_s + pools.CHUNKS * statistics.median(chunk_s)


def tail_index(n: int) -> int:
    """Index into the sorted times of the highest percentile that leaves at
    least TAIL_BEYOND ops beyond it."""
    if n < 4 * TAIL_BEYOND:
        raise ValueError(f"{n} ops per run; the tail needs at least {4 * TAIL_BEYOND}")
    return n - TAIL_BEYOND - 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    import_s = time.perf_counter() - _PROCESS_T0

    workdir = RESULTS / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    ops, build_s = build_pool(args.workload, args.seed, workdir)
    t = time.perf_counter()
    warm = run_op(ops[0])
    warm_s = time.perf_counter() - t
    if warm["error"]:
        _fail(f"warm-up op {ops[0].name} failed: {warm['error']}")
    setup_s = import_s + build_s + warm_s

    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()

    results = [None] * len(ops)
    times = []
    unstable = []
    failed = 0
    t_run = time.perf_counter()
    for p in range(passes):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(op)
            t = time.perf_counter()
            res = run_op(op)
            times.append(time.perf_counter() - t)
            if res["error"]:
                failed += 1
            if results[i] is None:
                results[i] = res
            elif res["stdout"] != results[i]["stdout"] or res["code"] != results[i]["code"]:
                unstable.append(op.name)
    wall_s = time.perf_counter() - t_run
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    attempted = len(times)
    ranked = sorted(times)
    k = tail_index(attempted)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (ranked[k], "s"),
        "ops_per_s": ((attempted - failed) / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    import checks  # imports scipy and mpmath, after the RSS reading

    problems = [f"{name}: output differs between passes" for name in unstable]
    problems += checks.check_workload(args.workload, ops, results)

    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"ops {attempted}  failed {failed}  tail = sorted time #{k + 1} of "
          f"{attempted} (p{100.0 * (k + 1) / attempted:.1f})")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    if tracer is not None:
        layer = tracer.metrics(passes)
        print(f"  traced ops_per_s {end_to_end['ops_per_s'][0]:.6g} 1/s")
        for name, (value, unit) in layer.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        metrics = layer
        tracer.write_spans(workdir / "spans.csv")
    else:
        metrics = end_to_end
    for line in problems[:20]:
        print(f"  CHECK FAILED {line}")
    summary = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "trace": args.trace, "times": {op.name: [] for op in ops},
        "problems": problems,
    }
    for i, t in enumerate(times):
        summary["times"][ops[i % len(ops)].name].append(t)
    (workdir / f"summary-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
