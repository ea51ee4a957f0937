"""Set-up probe: import memshell, solve one tiny case, print the monotonic clock.

``run.py`` starts this script in a fresh interpreter and subtracts its own
clock reading taken just before the start, which gives the set-up time from
process start. Usage: ``python3 perfbench/setup_probe.py OUTDIR``.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from memshell import cli

    cli.run_case(cli.RunConfig(case="cylinder", n=4, out=sys.argv[1]))
    print(repr(time.monotonic()))
