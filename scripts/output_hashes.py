#!/usr/bin/env python3
"""Run every bundled config once: ``opbandit run --plot``, ``opbandit
bounds`` and ``opbandit compare``; print the sha256 of every file ``run``
and ``bounds`` write, one ``<config> <file> <sha256>`` line each.

One full-scale pass reproduces the results and figures, checks the
envelopes, and checks the byte gate:

    python scripts/output_hashes.py --out results | diff - tests/output_hashes/default.txt

``--out DIR`` keeps the outputs as ``DIR/<config>/run`` (``results.csv``,
``metadata.json``, ``regret.svg``) and ``DIR/<config>/bounds``
(``bounds.csv``, ``metadata.json``); without it they go to a temporary
directory, which is removed afterwards.  The figure is not hashed, and
``--plot`` does not change ``metadata.json``.  A quick sweep at reduced
scale:

    python scripts/output_hashes.py --horizon 5000 --replications 5 --out results

``bounds`` runs only for configs whose bound alpha can be inferred (one
adaptive policy's); the others print no bounds lines and get no
``compare``.  ``--seed`` and ``--replications`` go to ``run`` only, since
the bounds depend on neither.  The script exits with the first nonzero
exit code of a command (2: ``compare`` found a violated pull envelope) and
writes that command's output to stderr.

Two checkouts whose outputs must be byte-identical print the same lines:

    python scripts/output_hashes.py --horizon 2100 --replications 5 > a.txt
    (the same in the other checkout) > b.txt
    diff a.txt b.txt

The simulator decides in one place, ``opbandit.simulator._route``, which
step runs each cell and which cells run together as the rows of one run.
At 5 replications every config with two or more index policies batches
them; at the configs' default scale most EAdaUCB cells run alone.

The script imports opbandit from the ``src/`` next to it, so each checkout
hashes its own sources.  Short horizons change leaders every few steps;
a second check at a horizon long enough for runs of hundreds of steps
covers the index step's gallop through them:

    python scripts/output_hashes.py --horizon 30000 --replications 1

A third check runs Thompson sampling on five arms and on three at a
horizon where its screen holds a table through many single wins of other
arms, and inverts only the arms the table leaves open (five arms):

    python scripts/output_hashes.py --only fig2b-beta square-wave-bernoulli mvno-synthetic --horizon 10000 --replications 10

``--only NAME`` (repeatable, or several names after one flag) runs just
those configs, for a quick diff of the ones a change touches:

    python scripts/output_hashes.py --only mvno-synthetic --horizon 600 --replications 1

The lines of the ``--horizon 2100``, ``--horizon 30000`` and Thompson
checks, and of the default scale, are committed under
``tests/output_hashes/``; ``tests/test_byte_gates.py`` runs the first three
in-process against them.
"""

import argparse
import io
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
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
    parser.add_argument("--out", default=None, help="keep the outputs under this directory")
    parser.add_argument("--horizon", type=int, default=None, help="override every config's horizon")
    parser.add_argument("--replications", type=int, default=None, help="override the replication count of `run`")
    parser.add_argument("--seed", type=int, default=None, help="override the base seed of `run`")
    parser.add_argument("--only", action="extend", nargs="+", metavar="NAME", help="run only these configs")
    args = parser.parse_args()

    overrides = [] if args.horizon is None else ["--horizon", str(args.horizon)]
    run_overrides = list(overrides)
    if args.seed is not None:
        run_overrides += ["--seed", str(args.seed)]
    if args.replications is not None:
        run_overrides += ["--replications", str(args.replications)]

    _, listing, _ = quiet(["list-configs"])
    names = listing.split()
    if args.only:
        unknown = sorted(set(args.only) - set(names))
        if unknown:
            parser.error(f"unknown config {unknown[0]!r}; bundled: {', '.join(names)}")
        names = [name for name in names if name in args.only]
    with nullcontext(args.out) if args.out else tempfile.TemporaryDirectory() as root:
        for name in names:
            run, bounds = Path(root) / name / "run", Path(root) / name / "bounds"
            commands = [  # each command, and the files it writes that are hashed (not the figure)
                (["run", name, "-o", str(run), "--plot", *run_overrides], ("metadata.json", "results.csv")),
                (["bounds", name, "-o", str(bounds), *overrides], ("bounds.csv", "metadata.json")),
                (["compare", str(run), str(bounds)], ()),
            ]
            for argv, hashed in commands:
                code, out, err = quiet(argv)
                if code != 0 and argv[0] == "bounds" and "cannot infer the bound alpha" in err:
                    break
                if code != 0:
                    sys.stderr.write(f"{argv[0]} {name} exited {code}:\n{out}{err}")
                    return code
                for file in hashed:
                    print(f"{name} {argv[0]}/{file} {sha256_file(Path(argv[3]) / file)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
