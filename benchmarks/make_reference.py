"""Write the reference outputs of every workload at seed 0 into ``reference/``.

Usage: python3 benchmarks/make_reference.py
Run it only when the library's outputs are meant to change.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from verify import reference_path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def main() -> int:
    from run import OUT_DIR, Runner

    OUT_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        workdir = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR)
        try:
            runner = Runner(workload, 0, workdir)
            runner.checker.check = lambda inv, output: ([], False)  # nothing to compare yet
            runner.iteration()
            if runner.failed:
                raise SystemExit(f"{workload}: {runner.failed} invocations failed")
            for inv in runner.invocations:
                path = reference_path(workload, inv.key, inv.command)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(runner.outputs[inv.key])
        finally:
            shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
