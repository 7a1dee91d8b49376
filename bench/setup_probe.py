"""Time ``import quarteig`` plus one warm-up solve in a fresh interpreter.

    python3 bench/setup_probe.py ROOT [BUNDLE OUTPUT]

With a bundle the warm-up goes through the command-line entry point (as the
bundle workload does), otherwise through ``solve_pencil`` and
``build_report`` on a small problem with deflated zeros and infinities.
Prints one JSON object with the elapsed seconds and the warm-up's exit code
(the output itself is checked by the measured runs, not here).
"""

import contextlib
import io
import json
import os
import sys
import time


def main(argv):
    root = argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    t0 = time.perf_counter()
    code = 0
    import quarteig

    if len(argv) > 2:
        import quarteig.cli

        with contextlib.redirect_stdout(io.StringIO()):
            code = quarteig.cli.main(["solve", argv[2], "--output", argv[3], "--format", "both"])
    else:
        import numpy as np

        import workloads

        coeffs, _, _ = workloads.planted(np.random.default_rng(0), 8, 2, 2)
        res = quarteig.solve_pencil(quarteig.QuarticPencil.from_matrices(*coeffs))
        quarteig.build_report(res)
    print(json.dumps({"setup_s": time.perf_counter() - t0, "exit_code": code}))


if __name__ == "__main__":
    main(sys.argv)
