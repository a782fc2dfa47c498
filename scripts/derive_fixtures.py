#!/usr/bin/env python3
"""Regenerate src/multlab/fixtures/bands.json from the oracle sweep.

The bands are derived regression constants (the underlying results are
order-of-magnitude, so the first trusted run records the observed window and
later runs are held to it).  Run from the repository root:

    python scripts/derive_fixtures.py          # rewrite bands.json
    python scripts/derive_fixtures.py --check  # write nothing; exit 1 if it would change
"""

import argparse
import difflib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from multlab.acceptance import DEFAULT_SEED, oracle_sweep  # noqa: E402

BANDS = pathlib.Path(__file__).resolve().parents[1] / "src" / "multlab" / "fixtures" / "bands.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if the derived bands differ "
                             "from the committed bands.json")
    args = parser.parse_args(argv)
    text = json.dumps(oracle_sweep(seed=DEFAULT_SEED), indent=2, sort_keys=True) + "\n"
    if args.check:
        committed = BANDS.read_text(encoding="utf-8") if BANDS.exists() else ""
        if committed == text:
            print(f"{BANDS} matches the derived bands")
            return 0
        sys.stdout.writelines(difflib.unified_diff(
            committed.splitlines(keepends=True), text.splitlines(keepends=True),
            "bands.json (committed)", "bands.json (derived)"))
        return 1
    BANDS.parent.mkdir(parents=True, exist_ok=True)
    BANDS.write_text(text, encoding="utf-8")
    print(f"wrote {BANDS}")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
