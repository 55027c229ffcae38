"""KAISA benchmark: train one workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 kaisabench/run.py --workload bert_memopt_2rank --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` trains once untraced and once with the layer wrappers of
``kaisabench/probes.py`` installed, prints the per-layer metrics, and writes
a Chrome trace plus a layer x stage x rank table under ``kaisabench/out/``.
The last line of standard output is the result object; the lines before it
are a readable table and the run's environment envelope.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "kaisabench" / "out"


def clear_repro_toggles() -> dict:
    """Drop every ``REPRO_*`` environment toggle so the program runs its defaults."""
    return {name: os.environ.pop(name) for name in sorted(os.environ) if name.startswith("REPRO_")}


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads():
    """OpenBLAS's effective thread count, asked from the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")) + sorted(libs.glob("libopenblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return int(query())
    return None


def envelope(args, cleared: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repro_toggles_cleared": cleared,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    cleared = clear_repro_toggles()  # before repro is imported, so no default can see them
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from kaisabench.harness import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    result = run_workload(spec, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    declared = load_benchmark()["per_layer" if args.trace else "end_to_end"]
    mismatch = sorted({m["name"] for m in declared} ^ set(result["metrics"]))
    if result["metrics"] and mismatch:
        raise RuntimeError(f"measured metrics and BENCHMARK.json disagree on: {mismatch}")

    env = envelope(args, cleared)
    env["steps_timed_per_run"] = spec.steps
    details = result.pop("details")
    if "artifacts" in details:
        details["artifacts"] = {kind: os.path.relpath(path, ROOT) for kind, path in details["artifacts"].items()}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{spec.name}-seed{args.seed}-trace{args.trace}.result.json").write_text(
        json.dumps({"envelope": env, "details": details, **result}, indent=1)
    )
    values = result["metrics"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'error_rate':48s} {details['error_rate']:>14.6g} failed/attempted ({result['failed']}/{result['attempted']} training runs)")
    for problem in details["problems"]:
        print(f"problem: {problem}")
    print("details " + json.dumps(details, sort_keys=True))
    print("envelope " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
