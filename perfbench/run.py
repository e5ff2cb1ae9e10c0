"""Run one benchmark workload; the last output line is the JSON result.

    python3 perfbench/run.py --workload flash_crowd --seed 1 \
        --seconds 10 --trace 0

Run it from the repository root. It needs the simulator sources in
``src/`` next to this directory and exits with status 2 without a result
when they are missing.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: simulator sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench.bench import main as bench_main
    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
