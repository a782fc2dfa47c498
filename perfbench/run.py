"""multlab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload hq-fuzz --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --compare base.jsonl head.jsonl

A run repeats passes of the workload until --seconds is spent (at least
MIN_PASSES of them).  Every pass is a fresh interpreter, so multlab's module
caches start cold as they do for a CLI user, and runs one caller issuing one
operation at a time (a closed loop, threads = 1).  All passes of a run use
the inputs generated from --seed.  The end-to-end metrics are medians over
the passes; with --trace 1 the run alternates untraced and traced passes and
reports the per-layer metrics of the traced ones.

The last line of output is one JSON object: correct, attempted, failed and
metrics.  Each run is also appended to .perfbench/results.jsonl with its
per-pass values and an environment stamp; --compare reads two such files.
The exit code is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
from tracing import COMPUTED_COUNTS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PAIRS = 1
MIN_PAIRS = 10  # seeds run on both sides before compare calls a gain
RUN_LIMIT_S = 170  # a run, all passes included, ends within this
E2E = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")


class BenchError(RuntimeError):
    pass


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def env_stamp() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "load_1min": os.getloadavg()[0],
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def git_sha() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over the package sources, which identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "multlab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(workload: str, seed: int, traced: bool, timeout: float = RUN_LIMIT_S) -> dict:
    scratch = STATE / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scratch", str(scratch)]
    if traced:
        cmd += ["--spans", str(STATE / f"spans-{workload}.jsonl.gz")]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass stopped after {timeout:.0f} s") from exc
    elapsed = time.monotonic() - t_spawn
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep.pop("t_ready") - t_spawn
    rep["pass_s"] = elapsed
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes for `seconds`; returns the run record written to results.jsonl."""
    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []

    def left():
        return start + RUN_LIMIT_S - time.monotonic()

    while True:
        plain.append(run_pass(workload, seed, False, left()))
        if trace:
            traced.append(run_pass(workload, seed, True, left()))
        cycle = statistics.median(p["pass_s"] for p in plain)
        if trace:
            cycle += statistics.median(p["pass_s"] for p in traced)
        enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_PASSES
        if enough and time.monotonic() - start + cycle > seconds:
            break
    passes = plain + traced
    rec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]][:20],
        "passes": [{k: p[k] for k in (*E2E, "attempted", "failed")} for p in plain],
        "e2e": {m: quartiles([p[m] for p in plain]) for m in E2E},
    }
    if trace:
        rec["layers"] = layer_metrics(plain, traced)
    return rec


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced passes (failures: the worst pass), plus overhead."""
    for p in traced:
        for layer, n in p["layer_failed"].items():
            key = f"{layer}.failed"
            p["layers"][key] = p["layers"].get(key, 0) + n
    names = {k for p in traced for k in p["layers"]}
    out = {k: (max if k.endswith(".failed") else statistics.median)(
        [p["layers"].get(k, 0.0) for p in traced]) for k in sorted(names)}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    self_sum = statistics.median(
        sum(v for k, v in p["layers"].items()
            if k.endswith(".self_s") and k.count(".") == 1) for p in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = plain_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    out["trace.self_sum_over_wall"] = self_sum / traced_wall
    return out


def load_spec() -> dict:
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC.name}: {exc}") from exc


def print_run(rec: dict, spec: dict) -> dict:
    """Print a run's metrics by name and unit; return the result-line metrics."""
    w = rec["workload"]
    print(f"{w}: {rec['attempted'] - rec['failed']}/{rec['attempted']} operations "
          f"passed (failed_frac {rec['failed'] / rec['attempted']:.4g} of "
          f"{rec['attempted']}) over {len(rec['passes'])} untraced passes")
    for f in rec["failures"]:
        print(f"  FAILED {f}")
    metrics = {}
    if not rec["trace"]:
        for m in spec["end_to_end"]:
            q1, med, q3 = rec["e2e"][m["name"]]
            print(f"  {m['name']:<12} {med:12.6g} {m['unit']:<6} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n {len(rec['passes'])})")
            metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        return metrics
    layers = rec["layers"]
    for m in spec["per_layer"]:
        value = layers.get(m["name"], 0.0)
        note = " (computed)" if m["name"] in COMPUTED_COUNTS else ""
        print(f"  {m['name']:<60} {value:14.6g} {m['unit']}{note}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def append_result(rec: dict, env: dict) -> None:
    STATE.mkdir(parents=True, exist_ok=True)
    with open(STATE / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**rec, "env": env}) + "\n")


# ---------------------------------------------------------------------------
# compare


def _side(records: list[dict], workload: str, metric: str) -> dict[int, float]:
    return {r["seed"]: r["e2e"][metric][1] for r in records
            if r["workload"] == workload and not r["trace"]}


def verdict(base: dict[int, float], head: dict[int, float], bound: float,
            lower_better: bool) -> str:
    """better / worse / unchanged / unresolved by the benchmark's own bound.

    A gain needs MIN_PAIRS runs on the same seeds on both sides, head winning
    9 in 10 of them, and medians apart by more than the base quartile spread.
    """
    sign = 1.0 if lower_better else -1.0
    b = sorted(base.values())
    h = sorted(head.values())
    q1, med_b, q3 = quartiles(b)
    worse_by = sign * (statistics.median(h) - med_b) / med_b
    if (q3 - q1) / med_b > bound:
        if max(sign * v for v in h) < min(sign * v for v in b):
            return "better"
        if min(sign * v for v in h) > max(sign * v for v in b) and worse_by > bound:
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by * med_b <= q3 - q1:
        return "unchanged"
    seeds = set(base) & set(head)
    wins = sum(sign * (head[s] - base[s]) < 0 for s in seeds)
    if len(seeds) >= MIN_PAIRS and wins >= 0.9 * len(seeds):
        return "better"
    return "unresolved"


def compare(base_path: str, head_path: str, spec: dict) -> int:
    def load(path):
        return [json.loads(line) for line in Path(path).read_text().splitlines() if line]
    base, head = load(base_path), load(head_path)
    flags = []
    for w in WORKLOADS:
        for m in spec["end_to_end"]:
            b, h = _side(base, w, m["name"]), _side(head, w, m["name"])
            if not b or not h:
                continue
            flag = verdict(b, h, m["bound"], m["better"] == "lower")
            flags.append(flag)
            bq, hq = quartiles(sorted(b.values())), quartiles(sorted(h.values()))
            print(f"{w:<14} {m['name']:<12} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] "
                  f"n {len(b)} | head {hq[1]:.6g} [{hq[0]:.6g}, {hq[2]:.6g}] n {len(h)} "
                  f"{m['unit']}  {flag}")
    if not flags:
        print("no workload has untraced runs on both sides")
        return 2
    return 1 if "worse" in flags else 0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        if args.compare:
            return compare(*args.compare, spec)
        if not (ROOT / "src" / "multlab" / "__init__.py").is_file():
            raise BenchError(f"no multlab sources under {ROOT / 'src'}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        env = env_stamp()
        print("env " + json.dumps(env))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in names:
            rec = run_workload(w, args.seed, seconds, bool(args.trace))
            append_result(rec, env)
            metrics = print_run(rec, spec)
            result["attempted"] += rec["attempted"]
            result["failed"] += rec["failed"]
            prefix = "" if len(names) == 1 else f"{w}."
            result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
