#!/usr/bin/env python3
"""Print the sha256 of every file ``opbandit run`` and ``opbandit bounds``
write for each bundled config, one ``<config> <file> <sha256>`` line each.

Two checkouts whose outputs must be byte-identical print the same lines:

    python scripts/output_hashes.py --horizon 2100 --replications 5 > a.txt
    (the same in the other checkout) > b.txt
    diff a.txt b.txt

The simulator runs every cell in one chunk loop, whose step the policy
class picks.  At 5 replications every config with two or more index
policies runs them as the rows of one run of that loop (``BATCH_ROWS`` is
10 cells), on chunks whose length the byte budget (``BATCH_BYTES``) sets
from the number of rows and arms; EAdaUCB rows join that batch while the
whole run's loads they hold (14 bytes a step) fit the same budget, and the
rest run alone: at the configs' default horizons and replications most of
them do.  Every other cell (``ts``, ``linucb``, ``oracle``) is a one-row
run of the same loop.

The script imports opbandit from the ``src/`` next to it, so each checkout
hashes its own sources.  Short horizons change leaders every few steps;
a second check at a horizon long enough for runs of hundreds of steps
covers the index step's gallop through them:

    python scripts/output_hashes.py --horizon 30000 --replications 1

A third check runs Thompson sampling on five arms and on three at a
horizon where its screen holds a table through many single wins of other
arms, and inverts only the arms the table leaves open (five arms):

    python scripts/output_hashes.py --only fig2b-beta square-wave-bernoulli mvno-synthetic --horizon 10000 --replications 10

``--only NAME`` (repeatable, or several names after one flag) hashes just
those configs, for a quick diff of the ones a change touches:

    python scripts/output_hashes.py --only mvno-synthetic --horizon 600 --replications 1

``bounds`` runs only for configs whose bound alpha can be inferred (one
adaptive policy's); the others print no bounds lines.  The files are
written to a temporary directory, which is removed afterwards.
"""

import argparse
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opbandit.cli import main as opbandit_main  # noqa: E402
from opbandit.report import sha256_file  # noqa: E402


def quiet(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = opbandit_main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--horizon", type=int, default=None, help="override every config's horizon")
    parser.add_argument("--replications", type=int, default=None, help="override the replication count of `run`")
    parser.add_argument("--seed", type=int, default=None, help="override every config's base seed")
    parser.add_argument("--only", action="extend", nargs="+", metavar="NAME", help="hash only these configs")
    args = parser.parse_args()

    overrides = []
    if args.horizon is not None:
        overrides += ["--horizon", str(args.horizon)]
    if args.seed is not None:
        overrides += ["--seed", str(args.seed)]
    run_overrides = overrides
    if args.replications is not None:
        run_overrides = overrides + ["--replications", str(args.replications)]

    _, listing, _ = quiet(["list-configs"])
    names = listing.split()
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            parser.error(f"unknown config {unknown[0]!r}; bundled: {', '.join(names)}")
        names = [name for name in names if name in args.only]
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for command, extra in (("run", run_overrides), ("bounds", overrides)):
                out = Path(tmp) / name / command
                code, _, err = quiet([command, name, "-o", str(out), *extra])
                if code != 0 and command == "bounds" and "cannot infer the bound alpha" in err:
                    continue
                if code != 0:
                    sys.stderr.write(f"{command} {name} exited {code}:\n{err}")
                    return code
                for path in sorted(out.iterdir()):
                    print(f"{name} {command}/{path.name} {sha256_file(path)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
