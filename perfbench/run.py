"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
from a second, traced pass.  The line before it is a JSON record of the
run: seed, resolved backend, ``nproc``, Python and NumPy versions,
sample counts, and how the answers were checked.

Exit codes: 0 when every answer matched the oracle, 1 when any op
raised or answered wrong, 2 when the program or ``BENCHMARK.json``
cannot be found, 3 when a served round leaked a worker process or a
shared-memory segment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Seed kept out of every tuning run, for checking later gain claims.
HELDOUT_SEED = 104_729

#: Environment knobs of the program that would change what is measured.
PINNED_ENV = ("QUASII_EXECUTOR_BACKEND", "QUASII_PROCESS_START_METHOD")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("explore", "ingest", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Drop program knobs a shell or CI leg may set, so they cannot change
    the program under test (backends are passed explicitly instead)."""
    for var in PINNED_ENV:
        os.environ.pop(var, None)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_environment()
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"perfbench: no {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path[:0] = [str(src), str(ROOT)]

    from perfbench.workloads import LeakError, Sizes

    try:
        record, result = run(args, spec, Sizes())
    except LeakError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"perfbench": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run(args: argparse.Namespace, spec: dict, sizes: Any) -> tuple[dict, dict]:
    """Run the requested pass(es); return the run record and the result."""
    import numpy as np

    from perfbench import report
    from perfbench.tracing import SpanRecorder, check_tree, layer_hooks
    from perfbench.workloads import WORKLOADS, nproc, run_pass, stop_resource_tracker

    workload = WORKLOADS[args.workload](args.seed, sizes)
    try:
        plain = run_pass(workload, args.seconds)
        passes = [plain]
        if args.trace:
            recorder = SpanRecorder()
            recorder.install(layer_hooks())
            if args.workload == "serve":
                recorder.install_worker_collector()
            try:
                traced = run_pass(workload, args.seconds, recorder)
            finally:
                recorder.uninstall()
            passes.append(traced)
            problems = check_tree(recorder.spans)
            out = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            recorder.write_jsonl(out)
            values = report.per_layer(plain, traced, recorder.spans)
            declared = spec["per_layer"]
        else:
            values, notes = report.end_to_end(plain, workload.tail)
            declared = spec["end_to_end"]
    finally:
        stop_resource_tracker()
    report.check_names(values, declared, "per_layer" if args.trace else "end_to_end")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": plain.backend,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "verified": sum(p.verified for p in passes),
        "verify_mode": plain.verify_mode,
        "error_rate": failed / attempted if attempted else 1.0,
    }
    if args.trace:
        record["spans"] = len(recorder.spans)
        record["spans_file"] = str(out.relative_to(ROOT))
        record["span_tree_problems"] = problems[:5]
    else:
        record.update(notes)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


if __name__ == "__main__":
    sys.exit(main())
