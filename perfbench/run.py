"""The catpairs benchmark.

    python3 perfbench/run.py --workload hub-large --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, then runs one closed-loop
client in this process: each operation is one call into the public
entry point (``convert`` or ``cli.main``), timed alone and checked
afterwards, outside the timed region.  The last line of stdout is one
JSON object: with ``--trace 0`` it holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the run spends half its time untraced
and half traced and holds the per-layer metrics, and the spans go to
``.perfbench_out/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 15

# The machine's interpreter speed drifts by a fifth or more within seconds
# and between runs.  A fixed integer loop, which touches no catpairs code,
# runs between operations, and each timing is scaled by REF_SECONDS over
# the mean loop time of the samples nearest to it.  REF_SECONDS is the
# loop's median time where the benchmark was defined (Xeon VM at 2.1 GHz,
# 2 vCPUs, Python 3.11.7), so times read as seconds at that speed.
REF_ITERATIONS = 10_000
REF_SECONDS = 1.25e-3
REF_EVERY = 0.01  # seconds between loop samples
REF_NEAR = 4  # samples on each side of a timing
REF_LONG = 0.05  # seconds; ops at least this long get REF_NEAR samples after them


def reference_loop() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


class Speed:
    """Reference-loop samples taken between timings."""

    def __init__(self) -> None:
        self.taken_at: list[float] = []
        self.seconds: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.taken_at or now - self.taken_at[-1] >= REF_EVERY:
            self.taken_at.append(now)
            self.seconds.append(reference_loop())

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds to reference-speed seconds for a timing."""
        i = bisect.bisect(self.taken_at, (start + end) / 2)
        near = self.seconds[max(0, i - REF_NEAR) : i + REF_NEAR]
        return REF_SECONDS / statistics.fmean(near)


def load_catpairs():
    """Import catpairs from this checkout's ``src``, never from elsewhere."""
    package = SRC / "catpairs"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no catpairs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import catpairs
    import catpairs.cli  # noqa: F401  (the cli-pairs entry point)

    if Path(catpairs.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported catpairs from {catpairs.__file__}, not {package}")
    return catpairs


def setup_seconds() -> float:
    """Median time of a fresh interpreter that imports catpairs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probes = []
    speed = Speed()
    # one extra probe first, which may still write bytecode caches
    for _ in range(SETUP_PROBES + 1):
        speed.sample(force=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import catpairs"], env=env, cwd=ROOT, check=True)
        probes.append((start, time.perf_counter()))
    speed.sample(force=True)
    return statistics.median((end - start) * speed.scale(start, end) for start, end in probes[1:])


def lru_caches() -> list:
    """Every ``functools.lru_cache`` in catpairs: a fresh interpreter starts with them empty."""
    modules = [m for name, m in sys.modules.items() if name == "catpairs" or name.startswith("catpairs.")]
    return [v for m in modules for v in vars(m).values() if hasattr(v, "cache_clear")]


def run_passes(workload: workloads.Workload, seconds: float, caches: list, op_span=None) -> dict:
    """Run every op in order, pass after pass, while another whole pass
    fits in *seconds* of reference-speed op time (at least one pass), so
    each input keeps its share and the pass count does not follow the
    machine's speed."""
    ops = workload.ops
    latencies: list[float] = []
    by_size: dict[int, list[float]] = {n: [] for n in workload.sizes}
    attempted = failed = passes = 0
    spent = 0.0  # reference-speed seconds of the passes so far
    clock = time.perf_counter
    gc.collect()
    speed = Speed()
    timings: list[tuple[int, float, float]] = []  # (size, start, end)
    while True:
        if workload.cold:
            for cache in caches:
                cache.cache_clear()
        for op in ops:
            speed.sample()
            t0 = clock()
            try:
                out = op.call() if op_span is None else op_span(op.call)
                raised = False
            except Exception as exc:  # a failed op is counted, and the run goes on
                out, raised = exc, True
            t1 = clock()
            timings.append((op.size, t0, t1))
            if t1 - t0 > REF_LONG:  # give a long op more samples next to it
                for _ in range(REF_NEAR):
                    speed.sample(force=True)
            try:
                good = not raised and op.check(out)
            except Exception:
                good = False
            failed += not good
        speed.sample(force=True)
        spent += sum((t1 - t0) * speed.scale(t0, t1) for _, t0, t1 in timings[attempted:])
        attempted += len(ops)
        passes += 1
        if spent * (passes + 1) / passes > seconds:
            break
    for size, t0, t1 in timings:
        latency = (t1 - t0) * speed.scale(t0, t1)
        latencies.append(latency)
        by_size[size].append(latency)
    # throughput at the stated mix: equal shares of every size
    mean_op = statistics.fmean(statistics.fmean(v) for v in by_size.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "ops_per_s": (attempted - failed) / attempted / mean_op,
        "latencies": latencies,
    }


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "catpairs").rglob("*.py"))


def layer_metrics(names: list[str], stats: dict, ops: int, overhead: float) -> dict[str, float]:
    table = stats["bijections.table"]
    special = {
        "bijections.table_builds": table["builds"] / ops,
        "bijections.table_build_s": table["build_s"] / ops,
        "bijections.table_hits": (table["calls"] - table["builds"]) / ops,
        "bijections.table_hit_ratio": (table["calls"] - table["builds"]) / table["calls"] if table["calls"] else 0.0,
        "structures.enumerate.values": stats["structures.enumerate"]["units"] / ops,
        "pairfile.bytes": (stats["pairfile.parse_pair"]["units"] + stats["pairfile.serialize_pair"]["units"]) / ops,
        "trace.overhead": overhead,
        "src.lines": src_lines(),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            group, _, field = name.rpartition(".")
            out[name] = stats[group][field] / ops
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
    cp = load_catpairs()
    caches = lru_caches()
    setup = None if args.trace else setup_seconds()
    workload = workloads.build(cp, args.workload, args.seed)

    if args.trace:
        plain = run_passes(workload, args.seconds / 2, caches)
        tracer = tracing.Tracer()
        groups = tracing.instrument(tracer, layers)
        traced = run_passes(workload, args.seconds / 2, caches, tracer.wrap("op", lambda call: call()))
        stats = tracer.aggregate(groups)
        tracing.check_hits(stats, layers["hit"][workload.name], workload.name)
        tracer.write(ROOT / ".perfbench_out" / f"spans-{workload.name}.tsv")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(list(units), stats, traced["attempted"], traced["ops_per_s"] / plain["ops_per_s"])
        passes = [plain, traced]
    else:
        result = run_passes(workload, args.seconds, caches)
        lat = result["latencies"]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "ops_per_s": result["ops_per_s"],
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * percentile(lat, workload.tail),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup,
        }
        passes = [result]
        print(f"{workload.name}: {result['passes']} passes; tail = p{workload.tail:g} of {len(lat)} ops")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"{workload.name}: error_rate = {failed / attempted:g} ({failed} of {attempted} ops)")
    for name, unit in units.items():
        print(f"{workload.name}: {name} = {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except tracing.TraceSetupError as exc:
        raise SystemExit(f"error: {exc}") from None
