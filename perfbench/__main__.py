"""``python -m perfbench``: environment hygiene, then the CLI.

Refuses to start under any ``REPRO_*`` knob that would change what the
measured code does, and re-executes itself once under the fixed hash
seed so the measuring interpreter lays out its dicts and sets the same
way on every run.
"""

import os
import sys

from . import SRC
from .env import HASH_SEED, child_env, forbidden_env


def entry(argv) -> int:
    if argv[:1] and argv[0] in ("run", "trace", "aa", "pin"):
        offending = forbidden_env()
        if offending:
            print("perfbench: refusing to start with "
                  + ", ".join(offending) + " set: the benchmark "
                  "measures the code's defaults", file=sys.stderr)
            return 2
        if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
            os.execve(sys.executable,
                      [sys.executable, "-m", "perfbench"] + argv,
                      child_env())
    try:
        from .cli import main
    except ModuleNotFoundError as exc:
        if exc.name != "repro":
            raise
        print(f"perfbench: cannot import repro (looked in {SRC}); run "
              f"from a checkout that holds src/repro", file=sys.stderr)
        return 3
    return main(argv)


if __name__ == "__main__":
    sys.exit(entry(sys.argv[1:]))
