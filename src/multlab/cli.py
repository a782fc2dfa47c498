"""Command line entry points for the experiment harness.

Subcommands: hq-scan, aq-dichotomy, poisson-phase, smirnov (each runs one
named experiment from a flat config file) and verify (runs the acceptance
suite, exiting nonzero if any criterion fails).  MULTLAB_OUT and
MULTLAB_THREADS override the output directory and worker count; nothing else
is read from the environment.

Exit codes: 0 success, 1 a failing verify criterion, 2 bad input (a
ConfigError raised at the config boundary, or an OSError), 3 any other
exception, with its traceback on stderr: that is a bug, not a typo.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .acceptance import DEFAULT_SEED, run_acceptance
from .config import ConfigError, parse_config_file
from .experiments import EXPERIMENTS, run_experiment


def _env_out() -> str:
    return os.environ.get("MULTLAB_OUT", ".")


def _env_threads() -> int:
    raw = os.environ.get("MULTLAB_THREADS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"MULTLAB_THREADS must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multlab",
        description="multiplication tables with restricted prime factors: "
                    "counting experiments, phase-transition sweeps, and "
                    "order-statistics simulations",
    )
    parser.add_argument("--version", action="version", version=f"multlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, metavar="PATH",
                       help="flat key = value config file")
        p.add_argument("--out", type=Path, metavar="DIR", default=None,
                       help="output directory (default: MULTLAB_OUT or .)")
        p.add_argument("--seed", type=int, metavar="N", default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, metavar="N", default=None,
                       help="worker threads (default: MULTLAB_THREADS or 1); "
                            "results do not depend on this")

    for name, (body, _) in sorted(EXPERIMENTS.items()):
        doc = (body.__doc__ or "").strip().splitlines()[0]
        p = sub.add_parser(name, help=doc)
        common(p)
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format for the report files")
        p.set_defaults(experiment=name)

    pv = sub.add_parser("verify", help="run the acceptance suite")
    common(pv)
    pv.add_argument("--filter", metavar="NAME", default=None,
                    help="run only criteria matching any comma-separated id/name/tag substring")
    return parser


def _resolved(args) -> tuple[Path, int]:
    out_dir = args.out if args.out is not None else Path(_env_out())
    threads = args.threads if args.threads is not None else _env_threads()
    if threads < 1:
        raise ConfigError(f"--threads / MULTLAB_THREADS must be >= 1, got {threads}")
    return out_dir, threads


def _cmd_experiment(args) -> int:
    out_dir, threads = _resolved(args)
    cfg = parse_config_file(args.config) if args.config else {}
    res = run_experiment(args.experiment, cfg, out_dir, seed=args.seed,
                         threads=threads, fmt=args.format)
    for path in res.csv_paths:
        print(f"wrote {path} ({len(res.tables[path.stem])} rows)")
    print(f"wrote {res.manifest_path}")
    for key, val in res.summary.items():
        print(f"{key}: {json.dumps(val, sort_keys=True)}")
    return 0


def _cmd_verify(args) -> int:
    out_dir, threads = _resolved(args)
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    t0 = time.perf_counter()
    results = run_acceptance(args.filter, seed=seed, threads=threads,
                             report=print)
    passed = [r for r in results if r.passed]
    failed = [r for r in results if not r.passed]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "verify_results.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cid", "name", "passed", "details"])
        for r in results:
            writer.writerow([r.cid, r.name, str(r.passed).lower(), r.details])
    report = {
        "artifact_version": __version__,
        "seed": seed,
        "threads": threads,
        "filter": args.filter,
        "criteria": [
            {"cid": r.cid, "name": r.name, "passed": r.passed,
             "details": r.details, "elapsed_seconds": round(r.elapsed, 3)}
            for r in results
        ],
        "passed": len(failed) == 0,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": round(time.perf_counter() - t0, 3),
    }
    json_path = out_dir / "verify_report.json"
    json_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")

    print(f"{len(passed)}/{len(results)} criteria passed "
          f"in {report['elapsed_seconds']:.1f}s; report: {json_path}")
    if failed:
        print("failing: " + ", ".join(r.cid for r in failed))
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_experiment(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # the process boundary: anything else is a bug, reported as one
        traceback.print_exc()
        print("internal error: the traceback above is a bug in multlab, "
              "not in the input", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
