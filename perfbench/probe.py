"""Set-up probe: a fresh process imports twcalc.cli, warms up and reports ready.

Usage: python3 perfbench/probe.py WORKLOAD WORKDIR  (with src on PYTHONPATH)

The parent times the span from spawning this process to reading "ready",
which covers interpreter start, imports and the lazy BLAS/LAPACK set-up
that the warm-up job triggers.
"""

import sys


def main() -> int:
    workload, workdir = sys.argv[1], sys.argv[2]
    import twcalc.cli  # noqa: F401  (the import a shell user pays for)
    import workloads

    workloads.run_job(workload, workloads.warmup_case(workload), workdir, warmup=True)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
