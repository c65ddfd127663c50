"""Build one workload's inputs into a directory; print the seconds it took.

Usage: python3 perfbench/setup_child.py <workload> <seed> <dir> <reference 0|1>

The time covers importing numpy and bayerkit and building the inputs and
reference outputs, so work moved into import or set-up shows in
``setup_s``. The warm-up item is not part of it. With reference 1, the
inputs of the warm-up's reference check are then added to the directory,
untimed.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    name, seed, out_dir, reference = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
    wl = WORKLOADS[name]
    wl.setup(seed, out_dir)
    setup_s = time.perf_counter() - T0
    if reference == "1":
        wl.setup_reference(out_dir)
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
