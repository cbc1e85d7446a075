"""One copy of a CPU-bound workload, run as a child process.

Usage: ``python3 perfbench/copy_child.py MODULE SEED SECONDS``

Calls ``MODULE.measure(SEED, SECONDS)`` and writes its result, pickled,
to standard output; anything the workload prints goes to standard error
instead.  :func:`common.in_parallel` starts these children and reaps
them.
"""

from __future__ import annotations

import importlib
import pickle
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    module, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    out = sys.stdout.buffer
    sys.stdout = sys.stderr
    part = importlib.import_module(module).measure(seed, seconds)
    out.write(pickle.dumps(part))
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
