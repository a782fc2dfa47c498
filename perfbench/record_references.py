"""Rewrite references.json from the current sources.

    python3 perfbench/record_references.py

Runs one pass of every workload at the default seed and records each
operation's reference value: CSV sha256 digests, exact counts and MC hit
counts.  Run it only on a commit whose outputs are known good; a change that
alters an output on purpose says so where it re-records.
"""

from __future__ import annotations

import json

from run import HERE, run_pass
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    refs = {w: run_pass(w, DEFAULT_SEED, False)["fingerprint"] for w in WORKLOADS}
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
