"""Benchmark entry point: one workload per run, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cell --seed 1 --seconds 20 \
        --trace 0

``--trace 0`` reports the end-to-end metrics, all from untraced passes:

* ``setup_s`` — median over three fresh processes of the seconds from
  workload entry (before ``repro`` is imported) to the first simulation
  call, with the kernel cache already warm;
* ``wall_s`` — median seconds of one timed pass, rescaled to a fixed
  machine speed by the probe of ``probe.py`` (the host seconds are
  printed beside it and kept in the full report);
* ``cells_per_s`` — resolved cells (or search candidates) per second of
  the median pass, in the same reference seconds;
* ``peak_rss_mb`` — peak resident memory of this process, MiB.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see ``NOTES.md``) rolled up from the traced ones; the
spans are written to ``perfbench/out/`` once, at the end.

Every pass is checked, unit by unit, against the committed reference of
its set-up seed (``perfbench/references/``); ``failed`` counts units that
raised, came back as failures, or differ in any bit. The process exits
non-zero on any failure, on a workload that did not engage the mechanism
it was chosen for, and when the library's sources are not in the
checkout.
"""

from __future__ import annotations

import os
import sys
import time

_ENTRY = time.perf_counter()

# Single-threaded numerics, pinned before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCES = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references")
os.environ["REPRO_KERNEL_CACHE"] = os.path.join(CACHE, "kernels")
sys.path.insert(0, SOURCES)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402

#: Set-up seed of the calibrated trace and cluster (``standard_setup``'s
#: default). References exist for it and for the held-out seed.
DEFAULT_SETUP_SEED = 3
HELD_OUT_SETUP_SEED = 5

#: Fresh processes whose set-up is timed; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Seconds a helper process may take before the run is abandoned.
CHILD_TIMEOUT_S = 120


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="order seed: permutes the cells a pass submits")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes until this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-seed", type=int, default=DEFAULT_SETUP_SEED,
                        help="seed of the calibrated set-up (a reference "
                             "must exist for it)")
    parser.add_argument("--write-reference", action="store_true",
                        help="run one pass in canonical order and store "
                             "its results as the set-up seed's reference")
    parser.add_argument("--child", choices=("setup", "kernels"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--kernel-cache", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args: argparse.Namespace) -> int:
    """Helper-process modes; print one JSON object and exit."""
    if args.child == "setup":
        prepared = workloads.WORKLOADS[args.workload](
            args.setup_seed, args.seed
        )
        elapsed = time.perf_counter() - _ENTRY
        print(json.dumps({"setup_s": elapsed, "phases": prepared.phases}))
        return 0
    if args.kernel_cache is not None:
        os.environ["REPRO_KERNEL_CACHE"] = args.kernel_cache
    start = time.perf_counter()
    from repro.kernels import active_provider

    imported = time.perf_counter()
    provider = active_provider()
    print(json.dumps({
        "provider": provider,
        "load_s": time.perf_counter() - imported,
        "import_s": imported - start,
    }))
    return 0


def _run_child(args: argparse.Namespace, mode: str,
               cache: "str | None" = None) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--setup-seed", str(args.setup_seed),
    ]
    if cache is not None:
        command += ["--kernel-cache", cache]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} helper failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _reference_path(setup_seed: int) -> str:
    return os.path.join(REFERENCES, f"setup-seed-{setup_seed}.json")


def _write_reference(args: argparse.Namespace) -> int:
    """Store one canonical-order pass as the reference of its seed."""
    prepared = workloads.WORKLOADS[args.workload](args.setup_seed, None)
    outcome = prepared.run_pass(False)
    if outcome.errors:
        for key, error in outcome.errors.items():
            print(f"error: {key}: {error}", file=sys.stderr)
        return 1
    disagreements = workloads.cross_check(prepared, outcome)
    if disagreements:
        for key, error in disagreements.items():
            print(f"error: {key}: {error}", file=sys.stderr)
        return 1
    path = _reference_path(args.setup_seed)
    document = {"setup_seed": args.setup_seed, "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    document["workloads"][args.workload] = {
        "units": dict(sorted(outcome.summaries.items())),
        "search": outcome.search,
    }
    os.makedirs(REFERENCES, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(outcome.summaries)} {args.workload} units to {path}")
    return 0


def _load_reference(args: argparse.Namespace) -> dict:
    path = _reference_path(args.setup_seed)
    if not os.path.exists(path):
        raise SystemExit(f"error: no reference for set-up seed "
                         f"{args.setup_seed} ({path})")
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if args.workload not in document["workloads"]:
        raise SystemExit(f"error: {path} has no {args.workload} reference")
    return document["workloads"][args.workload]


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SOURCES, "repro")):
        print(f"error: library sources not found under {SOURCES}",
              file=sys.stderr)
        return 2
    if args.child is not None:
        return _child(args)
    if args.write_reference:
        return _write_reference(args)
    reference = _load_reference(args)

    # Warm the benchmark-owned kernel cache so no timed set-up builds.
    _run_child(args, "kernels")
    if not args.trace:
        setup_s = statistics.median(
            _run_child(args, "setup")["setup_s"]
            for _ in range(SETUP_SAMPLES)
        )
    prepared = workloads.WORKLOADS[args.workload](args.setup_seed, args.seed)
    prepared.run_pass(True)  # first-call costs, never timed or checked

    from repro.benchmeta import bench_environment

    environment = bench_environment(
        f"median of timed passes within {args.seconds:g} s, rescaled to "
        f"reference seconds by the speed probe; setup median of "
        f"{SETUP_SAMPLES} processes; order seed {args.seed}, setup seed "
        f"{args.setup_seed}"
    )
    runner = metrics.PassRunner(prepared, reference)
    if args.trace:
        cold = os.path.join(CACHE, f"cold-{os.getpid()}")
        try:
            build = _run_child(args, "kernels", cache=cold)
        finally:
            shutil.rmtree(cold, ignore_errors=True)
        report = runner.traced(args.seconds, build["load_s"],
                               prepared.phases["trace_gen_s"])
    else:
        report = runner.timed(args.seconds, setup_s)
        report.metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    if args.trace:
        runner.tracer.write(stem + ".spans.jsonl.gz")
    result = report.render(environment, stem + ".json")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
