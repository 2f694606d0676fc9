"""Write one workload's inputs: ``prepare.py WORKLOAD SEED OUT_DIR [--quick]``.

Runs in its own process so that the benchmark can time the whole set-up,
package import included, and so that input generation never sets the
peak memory of the process that runs the timed part.
"""
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed, "--quick" in sys.argv[4:]).prepare(out)
    # flush the inputs now, so that their write-back does not run
    # alongside the timed part
    for path in out.iterdir():
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
