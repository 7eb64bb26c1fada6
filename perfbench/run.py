"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload prod_mix --seed 1 --seconds 4 --trace 0

The last line of standard output is the JSON result.  Exits with 2,
printing no result, when the program under ``src/`` is not there.
"""
import sys
from pathlib import Path


def _main() -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {root / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root), str(root / "src")]
    from perfbench.harness import main

    return main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(_main())
