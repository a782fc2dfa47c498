"""One pass of one workload in a fresh interpreter.

Started by run.py, never imported.  The pass sets the workload up, reports the
monotonic time at which it was ready (run.py subtracts its own start time to
get setup_s), runs every operation with its check, and prints one JSON
object as its last line of output.  With --trace it wraps the layers first
and adds the per-span summary; the spans themselves go to --spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import DEFAULT_SEED, WORKLOADS, make_api  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    out_dir = Path(tempfile.mkdtemp(prefix="pass-", dir=args.scratch))
    try:
        api = make_api()
        ops = WORKLOADS[args.workload](api, args.seed, out_dir)
        t_ready = time.monotonic()
        tracer = None
        if args.spans:
            from tracing import Tracer
            tracer = Tracer(f"{args.workload}:{args.seed}:{out_dir.name}")
            tracer.install(api)
        report = run_ops(ops, args.workload, args.seed, tracer)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    report["t_ready"] = t_ready
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        report["layers"] = tracer.summary()
        tracer.dump(args.spans)
    print(json.dumps(report))
    return 0


def run_ops(ops, workload: str, seed: int, tracer) -> dict:
    refs = json.loads((HERE / "references.json").read_text()).get(workload, {})
    wall = cpu = 0.0
    failures: list[str] = []
    layer_failed: Counter = Counter()
    fingerprint = {}
    for op in ops:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op.call()
            else:
                with tracer.root(op.name):
                    result = op.call()
        except Exception as exc:
            msg = f"raised {type(exc).__name__}: {exc}"
        else:
            msg = None
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if msg is None:
            try:
                msg = op.check(result)
                if msg is None and op.ref is not None:
                    value = fingerprint[op.name] = op.ref(result)
                    if (seed == DEFAULT_SEED or op.ref_every_seed) and refs.get(op.name) != value:
                        msg = f"{value!r} differs from the recorded {refs.get(op.name)!r}"
            except Exception as exc:
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append(f"{op.name}: {msg}")
            layer_failed[op.layer] += 1
    return {"attempted": len(ops), "failed": len(failures), "failures": failures[:20],
            "layer_failed": dict(layer_failed), "wall_s": wall, "cpu_s": cpu,
            "fingerprint": fingerprint}


if __name__ == "__main__":
    sys.exit(main())
