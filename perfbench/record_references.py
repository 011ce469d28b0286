#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every operation against.

For each ``run`` workload and each seed of the pool, at full and tiny size,
stores ``final_regret``, ``bound`` and the trace row count.  For ``verify``
it only checks that every seed passes, since its output is pass or fail.
Record on the commit whose outputs are the reference, from the repository
root:

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main():
    run.pin_threads()
    cli = run.load_package()[0]
    references = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as out_dir:
        out_path = str(Path(out_dir) / "trace.csv")
        for name, workload in run.WORKLOADS.items():
            entry = {"argv": " ".join(workload.argv)}
            for size, argv in (("full", workload.argv), ("tiny", workload.tiny_argv)):
                table = entry[size] = {}
                for seed in range(run.SEED_POOL):
                    full_argv = [*argv, "--seed", str(seed)]
                    if workload.is_run:
                        full_argv += ["--out", out_path]
                    code, stdout, stderr = run.invoke(cli, full_argv)
                    if code != 0:
                        sys.exit(f"{name} ({size}) seed {seed}: exit {code}\n{stdout}{stderr}")
                    if workload.is_run:
                        summary = run.parse_summary(stdout)
                        with open(out_path) as fh:
                            rows = sum(1 for _ in fh) - 1
                        table[str(seed)] = {
                            "final_regret": summary["final_regret"],
                            "bound": summary["bound"],
                            "rows": rows,
                        }
                print(f"{name} ({size}): {run.SEED_POOL} seeds ok", flush=True)
            references[name] = entry
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
