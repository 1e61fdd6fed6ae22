"""One cold start in a fresh interpreter: import misspec_krige, write the
workload's configs, build its scenarios, then run the first iteration.
Prints a JSON object with the set-up and first-iteration seconds and the
invocation counts.

Usage: python3 benchmarks/cold_probe.py <workload> <seed> <workdir>
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from run import cold_start  # noqa: E402  (imports no numpy: the import is timed)


def main(argv: list[str]) -> int:
    runner, setup_s, first_iter_s = cold_start(argv[1], int(argv[2]), argv[3])
    print(json.dumps({"setup_s": setup_s, "first_iter_s": first_iter_s,
                      "attempted": runner.attempted, "failed": runner.failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
