"""Record the exact outputs of every op at the default seed in expected.json.

    python3 bench/record_expected.py

Run it only on a commit whose outputs are known to be right: at the
default seed the benchmark counts every exact value that differs from
this file as a failed op.  Every round of every workload runs once, and
the file is written only if all checks pass.
"""

import json
import os
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from run import BENCH, DEFAULT_SEED, ROOT, Clock, Ledger, exact_part, run_round  # noqa: E402
import workloads  # noqa: E402


def main():
    recorded = {}
    for name, build in workloads.WORKLOADS.items():
        ledger = Ledger()
        with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as workdir:
            plan = build(DEFAULT_SEED, workdir)
            for ops in plan.rounds:
                run_round(ops, ledger, Clock())
        ledger.relate(plan.relations)
        if ledger.bad:
            sys.exit(f"{name}: checks failed, nothing written: {ledger.bad}")
        recorded[name] = {key: exact_part(v) for key, v in ledger.values.items()}
        print(f"{name}: {len(recorded[name])} ops recorded", file=sys.stderr)
    with open(os.path.join(BENCH, "expected.json"), "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
