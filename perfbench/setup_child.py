"""One workload set-up in a fresh interpreter: ``import repro.__main__`` and
build the workload's units, timed against the probe.

Usage: ``python3 perfbench/setup_child.py <workload> <seed>``.  Prints one
JSON line ``{"raw": host seconds, "norm": reference seconds}``.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import probe  # noqa: E402
import workloads  # noqa: E402


def _setup(workload: str, seed: int) -> None:
    import repro.__main__  # noqa: F401

    workloads.build_units(workload, seed)


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    meter = probe.Meter()
    __, measured = meter.measure(lambda: _setup(workload, seed))
    print(json.dumps({"raw": measured.raw, "norm": measured.norm}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
