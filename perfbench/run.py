#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload fig9_timing --seed 1 \
        --seconds 20 --trace 0 [--save DIR]
    python3 perfbench/run.py --record-digests

Run from the repository root. The script builds the perfbench program
(Release + LTO, in $CARGO_TARGET_DIR or .bench_build), runs it, checks
every simulated cell against digests.json and prints a human report
followed, as the last line, by one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end metrics, with --trace 1 its
per_layer metrics (a layer the workload does not exercise is measured
on short runs of the workloads that do, and the report names them).
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig9_timing", "accuracy_grid", "service_mixed")
RUN_TIMEOUT_S = 170
RUN_BUDGET_S = 160  # a whole run, build excluded, must end within 180 s
MIN_SPAN_COVERAGE = 0.9  # of workers x grid time, on a traced sweep


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a "
             "checkout of the repository")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    build_dir = build_dir / "perfbench"
    # Keep the compiler's temporary files (LTO partitions) inside the
    # checkout too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench", "rarpred-worker"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "driver" / "perfbench"


def run_program(binary, args, timeout=RUN_TIMEOUT_S):
    """Run perfbench in its own process group; returns its JSON lines.

    perfbench gets the CLOCK_MONOTONIC launch time (Python's monotonic
    clock is the same clock as std::chrono::steady_clock on Linux).
    """
    launch = time.monotonic_ns()
    proc = subprocess.Popen([str(binary)] + args + [f"--launch-ns={launch}"],
                            cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"perfbench exceeded {timeout:.0f}s")
    finally:
        # Worker processes die with their supervisor; make sure.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    return [json.loads(line) for line in out.splitlines()
            if line.startswith("{")]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_dir(workload):
    path = ROOT / ".bench_run" / workload
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    # Relative, so the daemon's socket path stays short.
    return str(path.relative_to(ROOT))


def record_digests(binary):
    digests = {}
    for w in WORKLOADS:
        lines = run_program(binary, [w, "--digests",
                                     f"--run-dir={run_dir(w)}"])
        digests[w] = next(l for l in lines if l["kind"] == "digests")["cells"]
        print(f"{w}: {len(digests[w])} cells", file=sys.stderr)
    path = HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)


def report(result, spec):
    w, info = result["workload"], result["info"]
    print(f"perfbench {w} seed={result['seed']} trace={result['trace']} "
          f"rounds={info['rounds']} build={info['build_type']}"
          f"{'+LTO' if info['lto'].upper() == 'YES' else ''} "
          f"({info['compiler']}) nproc={info['nproc']} "
          f"cpu=\"{info['cpu_model']}\"")
    if not result["valid"]:
        print("  INVALID: not a Release+LTO build; do not compare")
    names = spec["per_layer" if result["trace"] else "end_to_end"]
    filled = info.get("filled_from", {})
    for m in names:
        value = result["metrics"][m["name"]]["value"]
        note = ""
        if m["name"] == "req_tail_ms":
            note = (f"  (p{info['tail_percentile']:g} of "
                    f"{info['tail_samples']} samples per round)")
        if m["name"] in filled:
            note = f"  (short run of {filled[m['name']]})"
        print(f"  {m['name']:<24} {value:>14.6g} {m['unit']}{note}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<24} {frac:>14.6g} "
          f"({result['failed']} of {result['attempted']})")
    if result["trace"]:
        ledger = info["ledger_ms"]
        cap = ledger.get("grid.capacity")
        print("  self time (ms)" + ("  share of workers x grid" if cap
                                    else ""))
        for name, ms in sorted(ledger.items()):
            share = f"  {ms / cap:8.1%}" if cap and name.startswith(
                ("vm.decode", "cpu.", "core.", "driver.")) else ""
            print(f"    {name:<26} {ms:>12.1f}{share}")
    if info["bad_cells"]:
        print("  failed checks: " + ", ".join(info["bad_cells"][:10]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="also write the full result here")
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from this build")
    args = ap.parse_args()
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    binary = build()
    if args.record_digests:
        record_digests(binary)
        return
    reference = json.loads((HERE / "digests.json").read_text())

    # One process per round, as a bench binary runs one grid: every
    # round starts from the same fresh-process state.
    base = [args.workload, f"--seed={args.seed}",
            f"--run-dir={run_dir(args.workload)}"]
    deadline = time.monotonic() + RUN_BUDGET_S

    def one_round(traced):
        lines = run_program(binary, base + [f"--trace={int(traced)}"],
                            timeout=max(1.0, deadline - time.monotonic()))
        return {l["kind"]: l for l in lines}

    if args.trace:
        # Tracing overhead: the traced round against untraced rounds
        # on either side of it.
        runs = [one_round(False), one_round(True), one_round(False)]
    else:
        runs, start = [], time.monotonic()
        while True:
            t0 = time.monotonic()
            runs.append(one_round(False))
            now = time.monotonic()
            if now - start >= args.seconds or now + (now - t0) > deadline:
                break

    rounds = [r["round"] for r in runs]
    summaries = [r["summary"] for r in runs]
    correct, attempted, failed, bad = benchlib.check_digests(
        rounds, reference[args.workload])
    for r in rounds:
        extra = r["extra"]
        if extra.get("store_hit_frac") != extra.get("designed_hit_frac"):
            # A cell served from the store that should have been new,
            # or the reverse: the daemon answered from the wrong place.
            correct = False
            bad.append(f"store hit share {extra['store_hit_frac']} != "
                       f"designed {extra['designed_hit_frac']}")
    info = {
        "rounds": len(rounds),
        "build_type": summaries[0]["build_type"],
        "lto": summaries[0]["lto"],
        "compiler": summaries[0]["compiler"],
        "nproc": os.cpu_count(),
        "workers": summaries[0]["workers"],
        "cpu_model": cpu_model(),
        "bad_cells": bad,
        "extra": [r["extra"] for r in rounds],
    }
    if args.trace:
        trace = runs[1]["trace"]
        names = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = dict(trace["metrics"])
        plain = (rounds[0]["wall_s"] + rounds[2]["wall_s"]) / 2
        values["trace.overhead_frac"] = rounds[1]["wall_s"] / plain - 1
        if set(values) != set(names):
            fail("per-layer metrics differ from BENCHMARK.json: " +
                 ", ".join(sorted(set(values) ^ set(names))))
        info["ledger_ms"] = trace["ledger_ms"]
        info["filled_from"] = trace["filled_from"]
        coverage = values["driver.span_coverage"]
        if ("driver.span_coverage" not in info["filled_from"]
                and coverage < MIN_SPAN_COVERAGE):
            # The grid spent time nobody timed: the ledger misses a cost.
            correct = False
            bad.append(f"span coverage {coverage:.3f} < "
                       f"{MIN_SPAN_COVERAGE}")
    else:
        names = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, tail = benchlib.run_metrics(
            rounds, [s["peak_rss_mb"] for s in summaries])
        info.update(tail)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "valid": all(benchlib.build_valid(s) for s in summaries),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in names.items()},
        "info": info,
    }
    report(result, spec)
    if args.save:
        out = Path(args.save)
        out.mkdir(parents=True, exist_ok=True)
        name = (f"{args.workload}-t{args.trace}-s{args.seed}-"
                f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
        saved = dict(result, rounds=[{k: r[k] for k in (
            "wall_s", "setup_s", "cpu_s", "latencies_ms")} for r in rounds])
        (out / name).write_text(json.dumps(saved) + "\n")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
