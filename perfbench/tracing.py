"""Span tracer for the benchmark's traced run.

The tracer wraps multlab's public functions from outside the package: at the
module bindings where one layer calls another (for example
`multlab.experiments.count_aq` or `multlab.orderstats.run_blocks`), and in the
benchmark's own `api` namespace.  Calls a module makes to its own functions
stay unwrapped, so a span marks a layer boundary, not every helper call.

Spans are kept in memory as [name, start, end, parent, failed, members] and
written out once the pass ends.  Only calls made inside an operation (a root
span opened by the benchmark) are recorded; the benchmark's correctness
checks run outside any root and leave no spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("primes", "divisors", "counting", "poisson", "orderstats", "rng",
          "experiments", "acceptance")

# (defining module, function, wrap calls the module makes to itself too)
TRACED = (
    ("primes", "make_prime_set", False),
    ("divisors", "enumerate_sq", False),
    ("divisors", "factorize", False),
    ("divisors", "l_measure", False),
    ("divisors", "w_count", False),
    ("counting", "count_hq", False),
    ("counting", "count_sq", False),
    ("counting", "count_aq", False),
    ("poisson", "poisson_sum", False),
    ("poisson", "key_identity_rhs", False),
    ("poisson", "classify_regime", False),
    ("orderstats", "qk_mc", False),
    ("orderstats", "barrier_events_mc", False),
    ("orderstats", "vol_yk_mc", False),
    ("orderstats", "uk_mc", False),
    ("orderstats", "qk_exact", False),
    ("orderstats", "vol_lower_barrier_exact", False),
    ("rng", "run_blocks", False),
    ("experiments", "audit_summary", True),
    ("experiments", "run_experiment", False),
    ("acceptance", "run_acceptance", False),
)

MC_FUNCTIONS = ("qk_mc", "barrier_events_mc", "vol_yk_mc", "uk_mc")

# Work counts derived from input sizes rather than observed in the program.
COMPUTED_COUNTS = (
    "counting.count_hq.divisor-multiples.strided_writes_computed",
    "counting.count_aq.product-set.pairs",
    "counting.count_aq.segmented.pairs",
    "orderstats.qk_mc.samples",
    "orderstats.barrier_events_mc.samples",
    "orderstats.vol_yk_mc.samples",
    "orderstats.uk_mc.samples",
    "rng.run_blocks.blocks",
)

NAME, START, END, PARENT, FAILED, MEMBERS = range(6)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    @contextmanager
    def root(self, name: str):
        """One benchmark operation; spans are recorded only inside a root."""
        rec = [name, 0.0, 0.0, None, False, None]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        rec[START] = perf_counter()
        try:
            yield rec
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def wrap(self, fn, name: str, after=None, arg_hook=None):
        """Return fn wrapped in a span called `name`.

        after(rec, bound_args, result) may rename the span or add counts;
        arg_hook(args, kwargs) may replace the arguments (used to wrap the
        block_fn that run_blocks is given).
        """
        tracer = self
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            if arg_hook is not None:
                args, kwargs = arg_hook(args, kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1], False, None]
            tracer.spans.append(rec)
            tracer.stack.append(len(tracer.spans) - 1)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(rec, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # -- count hooks: run after the call, outside its span --------------------

    def _after_enumerate(self, rec, a, result):
        n = len(result)
        self.counts["divisors.enumerate_sq.members_out"] += n
        parent = self.spans[rec[PARENT]]
        parent[MEMBERS] = n

    def _after_count_hq(self, rec, a, result):
        method = a["method"]
        rec[NAME] = f"counting.count_hq.{method}"
        if method == "exhaustive":
            self.counts["counting.count_hq.exhaustive.members_probed"] += rec[MEMBERS] or 0
        elif method == "divisor-multiples":
            xi = int(math.floor(a["x"]))
            d_lo = int(math.floor(a["y"])) + 1
            d_hi = min(int(math.floor(a["z"])), xi)
            if d_lo <= d_hi:
                writes = int((xi // np.arange(d_lo, d_hi + 1, dtype=np.int64)).sum())
                self.counts["counting.count_hq.divisor-multiples.strided_writes_computed"] += writes

    def _after_count_aq(self, rec, a, result):
        path = "product-set" if result.method == "product-set" else "segmented"
        rec[NAME] = f"counting.count_aq.{path}"
        m = rec[MEMBERS] or 0
        self.counts[f"counting.count_aq.{path}.pairs"] += m * (m + 1) // 2
        self.counts[f"counting.count_aq.{path}.distinct"] += result.value

    def _after_mc(self, fname):
        def hook(rec, a, result):
            self.counts[f"orderstats.{fname}.samples"] += a["n_samples"]
        return hook

    def _after_run_blocks(self, rec, a, result):
        self.counts["rng.run_blocks.blocks"] += len(result)

    def _block_fn_hook(self, run_blocks):
        sig = inspect.signature(run_blocks)

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["block_fn"] = self.wrap(bound.arguments["block_fn"],
                                                    "orderstats.block")
            return bound.args, bound.kwargs
        return hook

    def install(self, api) -> None:
        """Wrap every TRACED function in the multlab modules and in `api`."""
        modules = {name: importlib.import_module(f"multlab.{name}") for name in LAYERS}
        after = {
            "enumerate_sq": self._after_enumerate,
            "count_hq": self._after_count_hq,
            "count_aq": self._after_count_aq,
            "run_blocks": self._after_run_blocks,
        }
        for fname in MC_FUNCTIONS:
            after[fname] = self._after_mc(fname)
        for home, fname, intra in TRACED:
            orig = getattr(modules[home], fname)
            hook = self._block_fn_hook(orig) if fname == "run_blocks" else None
            wrapped = self.wrap(orig, f"{home}.{fname}", after.get(fname), hook)
            for mname, mod in modules.items():
                if getattr(mod, fname, None) is orig and (intra or mname != home):
                    setattr(mod, fname, wrapped)
            if getattr(api, fname, None) is orig:
                setattr(api, fname, wrapped)

    # -- summary --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for rec in self.spans:
            if rec[PARENT] is not None:
                children[rec[PARENT]].append((rec[START], rec[END]))
        out = []
        for i, rec in enumerate(self.spans):
            covered = 0.0
            hi = -math.inf
            for s, e in sorted(children.get(i, ())):
                s = max(s, hi, rec[START])
                e = min(e, rec[END])
                if e > s:
                    covered += e - s
                    hi = e
            out.append(rec[END] - rec[START] - covered)
        return out

    def summary(self) -> dict:
        """Per-span-name calls, busy_s and self_s; per-layer self_s and failed."""
        stats: dict[str, float] = defaultdict(float)
        selfs = self.self_times()
        for rec, own in zip(self.spans, selfs):
            name = rec[NAME] if rec[PARENT] is not None else "bench.op"
            layer = name.split(".")[0]
            stats[f"{name}.calls"] += 1
            stats[f"{name}.busy_s"] += rec[END] - rec[START]
            stats[f"{name}.self_s"] += own
            stats[f"{layer}.self_s"] += own
            if rec[FAILED]:
                stats[f"{layer}.failed"] += 1
        stats.update(self.counts)
        for path in ("product-set", "segmented"):
            key = f"counting.count_aq.{path}"
            distinct = stats.pop(f"{key}.distinct", 0.0)
            pairs = stats[f"{key}.pairs"]
            stats[f"{key}.distinct_over_pairs"] = distinct / pairs if pairs else 0.0
        for fname in MC_FUNCTIONS:
            key = f"orderstats.{fname}"
            busy = stats[f"{key}.busy_s"]
            stats[f"{key}.samples_per_s"] = stats[f"{key}.samples"] / busy if busy else 0.0
        return dict(stats)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": rec[NAME],
                    "start": rec[START], "end": rec[END], "parent": rec[PARENT],
                    "failed": rec[FAILED],
                }) + "\n")
