"""Recompute perfbench/digests.json, the expected answers per workload and seed.

    python3 perfbench/make_digests.py

A digest hashes the canonical answers (case label, Witt classes,
equal/anisotropic flags; never witnesses) of the first ops of a seed's
stream.  run.py compares its own digest with this table, so regenerate
it only from a commit whose answers are trusted, and only when the
workload generators change.
"""

from __future__ import annotations

import json

import run as R
import workloads as W

SEEDS = range(32)


def main():
    table = {}
    for name in W.WORKLOAD_NAMES:
        table[name] = {}
        for seed in SEEDS:
            workload = W.make(name, str(R.BENCH / "work" / f"digests-{name}"))
            try:
                _, state = R.fresh_setup(workload)
                stream = R.Stream(workload, state, seed)
                table[name][str(seed)] = R.Ledger(workload, stream, drop=False).digest()
            finally:
                workload.cleanup()
        print(name, "done")
    (R.BENCH / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
