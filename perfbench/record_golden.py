"""Record the golden exit code and stdout sha256 of every case in cases.py.

    python3 perfbench/record_golden.py

Run it at the commit whose outputs are the reference.  A case is recorded
only when its output passes the checks in cases.py and all REPEATS runs,
and a traced run, give the same hashes.  The traced run also vets the
slot: every case must make the same span calls and counts (lattice points,
candidate pairs, matrix shapes and nonzeros, ...) as the first case of its
slot.  The fastest time inside cli.main is printed next to the slot's first
case.
Writes perfbench/golden.json.
"""

import json
import sys

import cases
import run

REPEATS = 3


def main():
    run.prepare()
    golden = {}
    for workload, slots in cases.WORKLOADS.items():
        for slot, slot_cases in slots:
            base = work0 = None
            for case in slot_cases:
                records, times = set(), []
                for _ in range(REPEATS):
                    child, _, dump = run.execute(case)
                    if child.data is None:
                        sys.exit("error: %s failed: %s" % (case, child.stderr))
                    code, out = child.data["exit"], child.data["stdout"]
                    errors = cases.semantic_errors(case, code, out)
                    if errors:
                        sys.exit("error: %s: %s" % (case, "; ".join(errors)))
                    record = {"exit": code, "stdout_sha256": run.sha256(out)}
                    if dump is not None:
                        record["dump_sha256"] = run.sha256(dump)
                    records.add(json.dumps(record, sort_keys=True))
                    times.append(child.data["solve_s"])
                child = run.execute(case, trace=True)[0]
                if child.data is None:
                    sys.exit("error: traced %s failed: %s" % (case, child.stderr))
                if child.data["stdout"] != out:
                    sys.exit("error: traced %s changes stdout" % case)
                if len(records) != 1:
                    sys.exit("error: %s gives different outputs across runs" % case)
                work = (
                    {k: v["calls"] for k, v in child.data["spans"].items()},
                    child.data["counters"],
                )
                work0 = work0 or work
                if work != work0:
                    sys.exit("error: %s does not do the same work as %s"
                             % (case, slot_cases[0]))
                golden[case] = json.loads(records.pop())
                t = min(times)
                base = base or t
                print("%-11s %-12s %7.3f s  %+6.1f %%  %s"
                      % (workload, slot, t, 100 * (t / base - 1), case), flush=True)
    with open(run.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
