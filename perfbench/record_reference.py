"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_reference.py [--out perfbench/reference.json]

Runs each workload's command once per seed slot (0 to 15), untraced, with
the package under ``src/`` and stores its exit status with the exact CSV
lines (campaigns) or each suite's (passed, checked) pair (oracles).  The
committed file was recorded from the unmodified program; re-record only
when the expected output is meant to change, and say so with the change.
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, SLOTS, WORK, WORKLOADS, invoke, record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=REFERENCE)
    args = parser.parse_args()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    reference = {}
    try:
        for workload in WORKLOADS:
            reference[workload] = {}
            for slot in range(SLOTS):
                inv = invoke(workload, slot, workdir)
                if inv["stats"] is None:
                    sys.exit(f"{workload} slot {slot} raised:\n{inv['log']}")
                entry = record(workload, inv)
                reference[workload][str(slot)] = entry
                failing = [n for n, r in entry.get("suites", {}).items() if not r[0]]
                note = f" FAILING SUITES {failing}" if failing else ""
                print(f"{workload} slot {slot}: exit {entry['exit_code']}{note}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    args.out.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
