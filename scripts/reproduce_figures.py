#!/usr/bin/env python3
"""Run the bundled scenario configs and drop results + plots under results/.

Full scale takes a while (the 50-replication scenarios dominate); pass
--quick for a fast sanity sweep at reduced horizon and replication count.
"""

import argparse
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from opbandit.cli import main as opbandit_main  # noqa: E402


def bundled_names() -> list[str]:
    """The bundled scenario names, as ``opbandit list-configs`` prints them."""
    out = io.StringIO()
    with redirect_stdout(out):
        opbandit_main(["list-configs"])
    return out.getvalue().split()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output root directory")
    parser.add_argument("--quick", action="store_true", help="reduced scale smoke sweep")
    parser.add_argument("--only", nargs="*", default=None, help="subset of scenario names")
    args = parser.parse_args()

    names = args.only or bundled_names()
    for name in names:
        out = Path(args.out) / name
        cmd = ["run", name, "-o", str(out), "--plot"]
        if args.quick:
            cmd += ["--horizon", "5000", "--replications", "5"]
        print(f"== {name} ==")
        code = opbandit_main(cmd)
        if code != 0:
            return code
        if name == "dirac-square-wave":
            bounds_out = Path(args.out) / f"{name}-bounds"
            bcmd = ["bounds", name, "-o", str(bounds_out)]
            if args.quick:
                bcmd += ["--horizon", "5000"]
            # the first failure, of bounds or of compare (2: an envelope violated)
            code = opbandit_main(bcmd) or opbandit_main(["compare", str(out), str(bounds_out)])
            if code != 0:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
