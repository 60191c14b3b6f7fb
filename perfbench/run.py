"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload faset-fc --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy. ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
traced run. The last line of standard output is the result object; the
full record (environment, sample counts, spans of a traced run) is written
under ``.perfbench_out/`` at the checkout root.
"""

import os

# One BLAS thread, fixed before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "setfusion" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'setfusion'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    result = workloads.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                    OUT / "work" / tag)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, **result}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record) + "\n")

    for failure in result["check_failures"]:
        print(f"CHECK FAILED: {failure}")
    for error in result["errors"]:
        print(f"OPERATION FAILED: {error}")
    print("# samples " + json.dumps(result["samples"]))
    print("# environment " + json.dumps(env))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
