"""Set-up time probe: in a fresh interpreter, time importing fractoid and
building one workload's inputs, and print the seconds taken.

    python3 perfbench/probe.py <workload> <seed> <size>

run.py starts several probes and reports their median as ``setup_s``.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    name, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[name].setup(seed, size, ROOT / workloads.SCRATCH_DIR)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
