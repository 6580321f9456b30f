"""The repository's benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore-pruned --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --report --seconds 30   # everything, one table

``--trace 0`` measures the workload's end-to-end metrics; ``--trace 1``
runs the traced pass of every workload and prints the per-layer metrics
(see ``layers.py``).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Host time is gated once per workload, as ``run_s``, and always normalized
by the probe (``probe.py``): raw host seconds on a shared 2-CPU host swing
by more than any bound a gate could hold.

End-to-end metrics (``--trace 0``):

* ``setup_s`` -- median over fresh interpreters of ``import repro.__main__``
  plus building the workload's units, probe-normalized.
* ``run_s`` -- reference-host seconds for one pass of the workload: each
  unit is repeated for ``--seconds`` (at least one full pass), and the
  per-unit interquartile means are summed.
* ``peak_rss_mb`` -- peak resident set of the measuring process.
* ``ok_frac`` -- operations whose output checks passed, over operations
  attempted.
* ``decided_frac`` -- units that reached a verdict within the budget: on
  ``explore-pruned``, searches that exhausted; on ``load-swarm``, swarms
  that drained; on ``campaigns``, reports that classified every cell and
  searches that found their witness.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def report(seed: int, seconds: int) -> int:
    """Every metric of every workload, by name and unit, in one table: an
    untraced run of each workload, then one traced run."""
    from workloads import WORKLOADS

    correct = True
    for trace, names in ((0, WORKLOADS), (1, WORKLOADS[:1])):
        for workload in names:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            label = "traced" if trace else workload
            for line in lines[:-1]:
                if line[:1] in "#!":
                    print("{:16s} {}".format(label, line))
            for name, value in result["metrics"].items():
                print("{:16s} {:44s} {:>16.6f} {}".format(
                    label, name, value["value"], value["unit"]))
            print("{:16s} {:44s} {:>16}".format(
                label, "correct", str(result["correct"])))
    return 0 if correct else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, untraced and traced, and "
                             "print every metric")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write("perfbench: program source not found at {}\n"
                         .format(SRC))
        return 2
    sys.path.insert(0, SRC)
    if args.report:
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.trace:
        from layers import traced
        out = traced(args.workload, args.seed,
                     os.path.join(ROOT, ".bench_out"))
    else:
        from measure import measure
        out = measure(args.workload, args.seed, args.seconds)
    outcome = out["outcome"]
    for note in out["notes"]:
        print("# " + note)
    for problem in outcome.problems:
        print("! " + problem)
    for name, value in out["metrics"].items():
        print("{:44s} {:>16.6f} {}".format(name, value["value"],
                                           value["unit"]))
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
