#!/usr/bin/env python3
"""Regenerate perfbench/expected.tsv, the outcomes every run is checked against.

    python3 perfbench/write_expected.py

Run from the repository root. Builds the harness as run.py does, then
records, for every workload and every input variant, the outcome of the
reference run: event, rematch and completed-task counts exactly, utility
and wind kWh to 0.1 and cost to 0.01 USD. Only a change that alters
simulation results on purpose regenerates the table, and it commits the new
table with that change. Takes about ten minutes on a 4-CPU machine.
"""
import subprocess
import sys

import run

HEADER = ("# workload\tvariant\tscenario\tevents\trematches\ttasks_completed"
          "\tutility_kwh\twind_kwh\tcost_usd\n")


def main():
    run.build()
    rows = [HEADER]
    for workload in run.WORKLOADS:
        done = subprocess.run(
            [run.HARNESS, "--workload", workload, "--emit-expected", "1",
             "--serve-bin", run.SERVE, "--workdir", run.WORKDIR],
            stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            run.fail(f"{workload}: harness exited with {done.returncode}")
        rows.append(done.stdout)
    with open(run.EXPECTED, "w") as out:
        out.write("".join(rows))
    print(f"wrote {run.EXPECTED}", file=sys.stderr)


if __name__ == "__main__":
    main()
