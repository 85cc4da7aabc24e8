"""Print the seconds one cold ``Trainer`` construction takes.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>``; ``run.py``
starts it once per set-up sample, because only the first construction in
a process is cold.
"""

import pin  # noqa: F401  (before numpy loads)
import sys

import workloads

if __name__ == "__main__":
    _, seconds = workloads.cold_setup(workloads.config(sys.argv[1], int(sys.argv[2])))
    print(repr(seconds))
