"""Time one fixed numpy operation, to compare runs made at different host speeds.

    python3 scripts/calibrate.py

One pass makes 1,500 calls of the ``np.matvec`` ufunc on a stack of five
64 x 128 matrices, then builds 1,000 Philox generators and draws 64
normals from each: about 26 ms on a 2-core host with numpy 2.4.  The
script prints the median of 5 passes, in seconds, as one float.  It
imports nothing from streamista, so its time does not depend on the tree
it is run beside.
"""

import statistics
import time

import numpy as np

PASSES = 5


def calibration_pass(matrices, vectors) -> float:
    """Seconds one pass of the fixed operation takes."""
    start = time.perf_counter()
    for _ in range(1500):
        np.matvec(matrices, vectors)
    for key in range(1000):
        np.random.Generator(np.random.Philox(key)).standard_normal(64)
    return time.perf_counter() - start


def main() -> None:
    rng = np.random.default_rng(0)
    matrices = rng.standard_normal((5, 64, 128))
    vectors = rng.standard_normal((5, 128))
    print(f"{statistics.median(calibration_pass(matrices, vectors) for _ in range(PASSES)):.6g}")


if __name__ == "__main__":
    main()
