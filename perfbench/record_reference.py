"""Record the reference output digests that ``run.py`` checks against.

Runs one untraced iteration of each workload per seed at the current
commit and stores its output digest in ``reference.json``, keyed by
workload and seed.  Run from the repository root, only on a commit whose
outputs are trusted (the goldens pass)::

    python3 perfbench/record_reference.py --seeds 0-29 [--workload sim_sweep ...]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="inclusive range, e.g. 0-29")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)

    root = os.getcwd()
    path = os.path.join(run.HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    for name in args.workload or sorted(run.WORKLOADS):
        for seed in args.seeds:
            run_dir = os.path.join(root, run.WORK_DIR, f"record-{name}-{seed}-{os.getpid()}")
            os.makedirs(run_dir)
            try:
                with run.WORKLOADS[name](run_dir, seed) as workload:
                    bench = run.Bench(root, workload, run.Deadline(run.RUN_DEADLINE_S))
                    bench.reference = None
                    it = bench.iterate(0, traced=False)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            if not it.ok:
                print(f"{name} seed {seed}: {'; '.join(it.problems)}", file=sys.stderr)
                return 1
            reference.setdefault(name, {})[str(seed)] = it.digest
            print(f"{name} seed {seed}: {it.digest}", flush=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
