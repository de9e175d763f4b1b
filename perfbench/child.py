"""Work the benchmark runs in a fresh interpreter of its own.

    python3 perfbench/child.py import
        print the seconds that `import proctomo.cli` takes, numpy already loaded
    python3 perfbench/child.py references <workload> <seed> <file>
        pickle the reference values of the workload's checks to <file>

The import is timed in a fresh interpreter because a command-line user pays
it on every command, while the benchmark's own process imports the package
once. The references are computed here so that their memory does not count
in the peak RSS of the benchmark's process.
"""

import pickle
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> int:
    import numpy  # noqa: F401  loaded first: its import is not the package's
    if argv == ["import"]:
        t0 = time.perf_counter()
        import proctomo.cli  # noqa: F401
        print(repr(time.perf_counter() - t0))
        return 0
    if len(argv) == 4 and argv[0] == "references":
        import workloads
        refs = workloads.references(argv[1], int(argv[2]))
        with open(argv[3], "wb") as fh:
            pickle.dump(refs, fh)
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
