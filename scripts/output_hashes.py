#!/usr/bin/env python3
"""Hash the outputs of the command line, to show that a change keeps them
byte for byte.

    PYTHONPATH=src python3 scripts/output_hashes.py --seeds 1,2 \\
        --workloads certify,sweep,locate --out hashes.json
    python3 scripts/output_hashes.py --compare parent.json change.json

One key per command line: `check` and `transform` on every
`tests/golden/*.json`, `reproduce example1` and `example2`, and every op of
the benchmark pools (`perfbench/pools.py`, built in a temporary directory)
for each seed and workload given. Its value is the sha256 of the op's exit
code, stdout, stderr and the CSV it writes, if any. Each op runs in-process
through `abelcycles.cli.main`, as the benchmark runs it, and the temporary
directory's path is replaced by a fixed name before hashing. The program is
the `abelcycles` on PYTHONPATH, so pointing PYTHONPATH at another checkout's
`src/` hashes that checkout with the same goldens and pools.

`--compare A B` lists the keys whose hashes differ, or that only one file
has, and exits 1 if there are any; it needs no PYTHONPATH.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
POOLS = ROOT / "perfbench" / "pools.py"
WORKDIR_NAME = "<workdir>"


def run(argv: list[str], workdir: str = "") -> str:
    """The sha256 of one command line's exit code, stdout, stderr and CSV;
    an exception the command line raises is hashed in place of its code."""
    from abelcycles.cli import main as cli_main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except (Exception, SystemExit) as exc:
            code = f"{type(exc).__name__}: {exc}"
    csv = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1].removesuffix(".json") + ".csv")
        if path.is_file():
            csv = path.read_text()
    record = json.dumps([code, out.getvalue(), err.getvalue(), csv])
    if workdir:
        record = record.replace(workdir, WORKDIR_NAME)
    return hashlib.sha256(record.encode()).hexdigest()


def _load_pools():
    # read from its file, without writing bytecode beside it
    spec = importlib.util.spec_from_file_location("pools", POOLS)
    pools = sys.modules["pools"] = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(pools)
    finally:
        sys.dont_write_bytecode = dont_write
    return pools


def output_hashes(seeds: list[int], workloads: list[str]) -> dict[str, str]:
    hashes = {}
    for path in sorted(GOLDEN.glob("*.json")):
        for command in ("check", "transform"):
            hashes[f"golden/{command}/{path.stem}"] = run(
                [command, "--input", str(path)]
            )
    for example in ("example1", "example2"):
        hashes[f"reproduce/{example}"] = run(["reproduce", example])
    pools = _load_pools() if workloads else None
    for workload in workloads:
        for seed in seeds:
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)
                ops = pools.fixed_ops(workload, workdir)
                for k in range(pools.CHUNKS):
                    ops += pools.build_chunk(workload, seed, k, workdir)
                for op in ops:
                    hashes[f"{workload}/seed{seed}/{op.name}"] = run(op.argv, tmp)
    return hashes


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The keys whose hashes differ, or that only one side has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _names(text: str) -> list[str]:
    return [v.strip() for v in text.split(",") if v.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_ints, default=[1],
                        help="comma-separated pool seeds (default 1)")
    parser.add_argument("--workloads", type=_names, default=[],
                        help="comma-separated pools out of certify, sweep, locate "
                             "(default none: the goldens and reproduce only)")
    parser.add_argument("--out", help="write the key-sorted hashes here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="list the keys whose hashes differ between two files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        differ = compare(a, b)
        for key in differ:
            print(f"differs: {key}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} keys differ")
        return 1 if differ else 0
    if not args.out:
        parser.error("give --out FILE, or --compare A B")
    hashes = output_hashes(args.seeds, args.workloads)
    Path(args.out).write_text(json.dumps(hashes, sort_keys=True, indent=1) + "\n")
    print(f"{len(hashes)} keys written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
