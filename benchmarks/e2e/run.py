#!/usr/bin/env python3
"""The gated end-to-end benchmark: four workloads, four metrics each.

    python3 benchmarks/e2e/run.py                       # all, both modes
    python3 benchmarks/e2e/run.py --workload cold_question --seed 7 \\
        --seconds 27 --trace 0                          # what the gate runs
    python3 benchmarks/e2e/run.py --workload warm_repeat --trace 1
    python3 benchmarks/e2e/run.py --smoke               # schema + digests
    python3 benchmarks/e2e/run.py --repeat 10           # repeatability gate
    python3 benchmarks/e2e/run.py --write-expected      # regenerate digests

Each workload runs in a fresh subprocess of this same file (fixed hash
seed, single-threaded BLAS) that prints every metric by name with its
unit and, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  See
README.md beside this file for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# Share of ``--seconds`` a traced run spends with tracing off (to price
# the tracing) and on; the rest pays for once-per-run extras.
PLAIN_SHARE, TRACED_SHARE = 0.3, 0.5


# ---------------------------------------------------------------------------
# Child: one workload, in this process
# ---------------------------------------------------------------------------


def run_workload(args: argparse.Namespace) -> dict:
    """Set up, measure and verify one workload; return its result."""
    started = time.perf_counter()
    from harness import (
        EXPECTED_PATH, SETUP_REPEATS, Tracer, cpu_seconds, peak_rss_mb,
    )
    from layers import layer_values
    from workloads import WORKLOADS

    import_s = time.perf_counter() - started
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    tracer.enabled = traced_run = bool(args.trace) or args.smoke
    min_rounds = 1 if args.smoke else 2
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    workload = WORKLOADS[args.workload](
        args.seed, tmp, tracer, json.loads(EXPECTED_PATH.read_text())
    )
    try:
        workload.make_inputs()
        setups = []
        for repeat in range(1 if args.smoke else SETUP_REPEATS):
            if repeat:
                workload.teardown()
            began = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - began)

        def measure(seconds: float):
            pids = [os.getpid()] + workload.worker_pids()
            cpu = sum(map(cpu_seconds, pids))
            window = workload.measure(seconds, min_rounds)
            return window, (sum(map(cpu_seconds, pids)) - cpu) / window.attempted

        layers = None
        if traced_run:
            tracer.enabled = False
            # A smoke run only checks names: its one traced window also
            # stands in for the untraced one.
            windows = [] if args.smoke else [measure(args.seconds * PLAIN_SHARE)[0]]
            tracer.enabled = True
            tracer.install_hooks()
            tracer.counters.clear()
            first = len(tracer.spans)
            traced, cpu_per_op = measure(args.seconds * TRACED_SHARE)
            windows.append(traced)
            layers = layer_values(
                tracer, first, windows[0], traced, cpu_per_op, workload.trace_extras()
            )
        else:
            windows = [measure(args.seconds)[0]]
        window = windows[0]
        rss = list(map(peak_rss_mb, [os.getpid()] + workload.worker_pids()))
    finally:
        try:
            workload.teardown()
        except Exception:  # never mask the run's own failure
            traceback.print_exc(file=sys.stderr)
        shutil.rmtree(tmp, ignore_errors=True)

    for problem in workload.problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    end_to_end = {
        "latency_min_s": window.latency_min(),
        "throughput_peak_ops_s": window.throughput_peak(),
        "peak_rss_mb": max(rss),
        "setup_s": import_s + statistics.median(setups),
    }
    result = {
        "correct": not workload.problems and not any(w.failed for w in windows),
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": with_units("end_to_end", end_to_end),
    }
    if layers is not None:
        (out / f"trace_{args.workload}.json").write_text(
            json.dumps(tracer.to_json(), separators=(",", ":"))
        )
        if args.smoke:
            result["layers"] = with_units("per_layer", layers)
        else:
            result["metrics"] = with_units("per_layer", layers)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "import_s": import_s,
        "setups_s": setups,
        "rss_mb_by_process": rss,
        "window_s": window.wall,
        "samples_s": window.samples,
        "completions_s": window.completions,
        **result,
    }
    (out / f"{args.workload}.json").write_text(json.dumps(detail, indent=1))
    return result


def with_units(section: str, values: dict[str, float]) -> dict:
    """Exactly the metrics ``BENCHMARK.json`` lists, each with its unit."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in SPEC[section]
    }


def write_expected() -> None:
    from harness import EXPECTED_PATH
    from workloads import compute_expected

    EXPECTED_PATH.parent.mkdir(exist_ok=True)
    expected = compute_expected()
    EXPECTED_PATH.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(json.dumps({"digests": len(expected)}))


# ---------------------------------------------------------------------------
# Parent: spawn, print, gate
# ---------------------------------------------------------------------------


def spawn(args: argparse.Namespace, *extra: str) -> dict | None:
    """Run this file as a child with a pinned environment; its result."""
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
    )
    command = [
        sys.executable, str(HERE / "run.py"), "--in-process",
        "--seconds", str(args.seconds), "--out", str(args.out), *extra,
    ]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        return None
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_one(args: argparse.Namespace, workload: str, seed: int, trace: int) -> dict:
    result = spawn(
        args, "--workload", workload, "--seed", str(seed), "--trace", str(trace)
    )
    if result is None:
        raise SystemExit(f"{workload}: the workload process failed")
    print(f"== {workload} (seed {seed}, trace {trace}): "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"correct={result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:14.6f} {metric['unit']}")
    return result


def baseline(args: argparse.Namespace) -> int:
    """Every workload, untraced then traced: all metrics in one file."""
    report = {}
    for workload in WORKLOAD_NAMES:
        plain = run_one(args, workload, args.seed, 0)
        traced = run_one(args, workload, args.seed, 1)
        report[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
        }
    (Path(args.out) / "baseline.json").write_text(json.dumps(report, indent=1))
    return 0 if all(row["correct"] for row in report.values()) else 1


def smoke(args: argparse.Namespace) -> int:
    """Every workload once, briefly: schema, digests, metric names."""
    began = time.perf_counter()
    args.seconds = 0
    bad = []
    for workload in WORKLOAD_NAMES:
        result = spawn(args, "--workload", workload, "--seed", str(args.seed), "--smoke")
        if result is None:
            bad.append(f"{workload}: process failed")
            continue
        if set(result) != {"correct", "attempted", "failed", "metrics", "layers"}:
            bad.append(f"{workload}: result keys {sorted(result)}")
        if not result.get("correct") or result.get("failed") or not result.get("attempted"):
            bad.append(f"{workload}: {result.get('failed')} of "
                       f"{result.get('attempted')} ops failed verification")
        for section, key in (("end_to_end", "metrics"), ("per_layer", "layers")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {n: m["unit"] for n, m in result.get(key, {}).items()}
            if want != got:
                bad.append(f"{workload}: {section} names/units differ from BENCHMARK.json")
        print(f"smoke {workload}: {result.get('attempted')} ops verified")
    for line in bad:
        print(f"FAIL {line}")
    print(f"smoke {'FAILED' if bad else 'ok'} in {time.perf_counter() - began:.1f}s")
    return 1 if bad else 0


def repeatability(args: argparse.Namespace) -> int:
    """N whole runs, seeds seed..seed+N-1: is the benchmark quiet enough
    for its own bounds?  Spread is the interquartile range over the
    median; drift compares the medians of the odd and the even runs."""
    runs: dict[str, list[dict]] = {w: [] for w in WORKLOAD_NAMES}
    for repeat in range(args.repeat):
        for workload in WORKLOAD_NAMES:
            result = run_one(args, workload, args.seed + repeat, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload}: ops failed verification")
            runs[workload].append(result["metrics"])
    report: dict[str, dict] = {}
    bad = []
    for workload, results in runs.items():
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r[name]["value"] for r in results]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            drift = abs(
                statistics.median(values[0::2]) - statistics.median(values[1::2])
            ) / median
            report[f"{workload}.{name}"] = {
                "min": min(values), "median": median, "max": max(values),
                "spread": spread, "range": (max(values) - min(values)) / median,
                "drift": drift, "bound": bound, "values": values,
            }
            # The gate does not bound the spread of set-up time.
            if (spread > bound and name != "setup_s") or drift > bound / 2:
                bad.append(f"{workload}.{name}: spread {spread:.3f}, "
                           f"drift {drift:.3f}, bound {bound}")
    Path(args.out).mkdir(parents=True, exist_ok=True)
    (Path(args.out) / "repeatability.json").write_text(json.dumps(report, indent=1))
    for key, row in report.items():
        print(f"{key:36s} median {row['median']:10.4f} spread {row['spread']:.3f} "
              f"drift {row['drift']:.3f} bound {row['bound']}")
    for line in bad:
        print(f"FAIL {line}")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="where run files go (default: the ignored out/)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, metavar="N")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--in-process", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.in_process:
        if args.write_expected:
            write_expected()
        else:
            print(json.dumps(run_workload(args)))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print("no src/repro beside the benchmark: nothing to measure", file=sys.stderr)
        return 2
    if args.write_expected:
        return 0 if spawn(args, "--write-expected") is not None else 1
    if args.smoke:
        return smoke(args)
    if args.repeat:
        return repeatability(args)
    if args.workload:
        print(json.dumps(run_one(args, args.workload, args.seed, args.trace)))
        return 0
    return baseline(args)


if __name__ == "__main__":
    sys.exit(main())
