"""Fast self-check of the benchmark.

    python3 perfbench/selfcheck.py

For every workload it checks that one seed always gives the same inputs
and another seed other inputs, that the output checker rejects a wrong
output, and that one pass over every generated input completes with no
failed operation.  It also checks that the tracing guard fails on a
function name that does not exist.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import time

import run
import tracing
import workloads


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {message}")


def accepts(op: workloads.Op, out: object) -> bool:
    try:
        return bool(op.check(out))
    except Exception:
        return False


def main() -> None:
    cp = run.load_catpairs()
    caches = run.lru_caches()
    for name in workloads.WORKLOADS:
        start = time.perf_counter()
        workload = workloads.build(cp, name, 7)
        keys = [op.key for op in workload.ops]
        expect(keys == [op.key for op in workloads.build(cp, name, 7).ops], f"{name}: seed 7 gave two input sets")
        expect(keys != [op.key for op in workloads.build(cp, name, 8).ops], f"{name}: seeds 7 and 8 gave one input set")

        # A wrong output: the right output of another op of the same kind.
        sample = workload.ops[:24]
        outputs = [op.call() for op in sample]
        for op, out in zip(sample, outputs):
            expect(accepts(op, out), f"{name}: checker rejects a right output of {op.key[:2]}")
            wrong = [o for other, o in zip(sample, outputs) if other.kind == op.kind and o != out]
            expect(bool(wrong), f"{name}: no wrong output to try on {op.key[:2]}")
            expect(not accepts(op, wrong[0]), f"{name}: checker accepts a wrong output of {op.key[:2]}")

        result = run.run_passes(workload, 0, caches)
        expect(result["attempted"] == len(workload.ops), f"{name}: one pass ran {result['attempted']} ops")
        expect(result["failed"] == 0, f"{name}: {result['failed']} of {result['attempted']} ops failed")
        print(f"{name}: ok, {result['attempted']} ops, {time.perf_counter() - start:.1f} s")

    try:
        tracing.instrument(tracing.Tracer(), {"groups": {"x": {"functions": ["relations.no_such_function"]}}})
    except tracing.TraceSetupError:
        pass
    else:
        expect(False, "tracing accepted a function name that does not exist")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
