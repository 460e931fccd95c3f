#!/usr/bin/env python3
"""Build the taqos benchmark and run its workloads.

Run from the repository root.

One workload, one child process; the last line of stdout is the result:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

The whole benchmark, written as one result set with a machine fingerprint
(REPS untraced runs of every workload with seeds 1..REPS, then one traced
run each):

    python3 benchmark/run.py --out RESULT.json [--seconds S]

Rewrite benchmark/golden.json from the code as it stands (a benchmark
change; never part of a change that claims a gain):

    python3 benchmark/run.py --record-golden

The runner builds benchmark/CMakeLists.txt in Release into build-bench/,
runs build-bench/taqos_bench for each workload, reads the child's peak
RSS from os.wait4, and adds the checks that need files outside the
binary: the golden digests (default seed only) and, on the traced
sweep_fig4 run, the paper-scale fig4 grid against
bench/nightly_ref/fig4.json within tools/diff_sweep.py's rtol 0.02.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmark"
BUILD = ROOT / "build-bench"
BINARY = BUILD / "taqos_bench"
DEFAULT_SEED = 1  # kDefaultSeed in cells.h: the seed golden.json holds
REPS = 3  # untraced runs per workload in a result set
CHILD_TIMEOUT_S = 170
RTOL, ATOL = 0.02, 1e-9  # tools/diff_sweep.py's defaults


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure (first time) and build taqos_bench; output to stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "taqos_bench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_child(workload, seed, seconds, traced):
    """One workload in its own process: (result, peak RSS MB, wall s)."""
    tag = f"{workload}-{seed}-{int(traced)}-{os.getpid()}"
    rundir = BUILD / "run"
    out = rundir / f"{tag}.json"
    work = rundir / f"{tag}.work"
    rundir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), f"workload={workload}", f"seed={seed}",
           f"seconds={seconds}", f"traced={int(traced)}", f"out={out}",
           f"work={work}"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=sys.stderr, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    try:
        if proc.returncode != 0:
            raise BenchError(f"{workload}: taqos_bench exited with "
                             f"{proc.returncode}")
        with open(out) as f:
            result = json.load(f)
        if result["model_sweep"]:
            result["model"] = model_error(Path(result["model_sweep"]))
    finally:
        out.unlink(missing_ok=True)
        shutil.rmtree(work, ignore_errors=True)
    return result, usage.ru_maxrss / 1024.0, wall


def model_error(sweep_path):
    """(max relative error, failing means, means checked) of a paper-scale
    fig4 record against the nightly reference, as tools/diff_sweep.py
    compares them."""
    sys.path.insert(0, str(ROOT / "tools"))
    sys.dont_write_bytecode = True  # leave tools/ as checked out
    import diff_sweep
    _, current = diff_sweep.load_aggregates(sweep_path)
    _, reference = diff_sweep.load_aggregates(
        ROOT / "bench" / "nightly_ref" / "fig4.json")
    worst, failing, checked = 0.0, [], 0
    for key, ref_metrics in reference.items():
        cur_metrics = current.get(key, {})
        for name, ref in ref_metrics.items():
            checked += 1
            if name not in cur_metrics:
                failing.append(f"{diff_sweep.fmt_key(key)}.{name}: missing")
                continue
            diff = abs(cur_metrics[name] - ref)
            if diff > ATOL + RTOL * abs(ref):
                failing.append(f"{diff_sweep.fmt_key(key)}.{name}: "
                               f"{cur_metrics[name]:.6g} vs {ref:.6g}")
            worst = max(worst, diff / max(abs(ref), ATOL) if diff else 0.0)
    return {"max_rel_err": worst, "failing": failing, "checked": checked}


def golden_failures(workload, digests):
    """Digests that differ from benchmark/golden.json (default seed)."""
    with open(BENCH / "golden.json") as f:
        golden = json.load(f).get(workload, {})
    return [f"{name}: digest {d}, golden {golden.get(name, 'missing')}"
            for name, d in sorted(digests.items()) if golden.get(name) != d]


def span_self_ms(spans):
    """Self time (span minus its children) summed by span path, in ms."""
    paths, self_us = [], []
    for s in spans:
        parent = s["parent"]
        paths.append(s["name"] if parent < 0
                     else paths[parent] + "/" + s["name"])
        self_us.append(s["end_us"] - s["start_us"])
        if parent >= 0:
            self_us[parent] -= s["end_us"] - s["start_us"]
    by_path = {}
    for path, us in zip(paths, self_us):
        by_path[path] = by_path.get(path, 0.0) + us / 1e3
    return dict(sorted(by_path.items(), key=lambda kv: -kv[1]))


def measure(spec, workload, seed, seconds, traced):
    """One run: the printed result object plus the details a result set
    keeps (failures, wall time, span breakdown)."""
    result, rss_mb, wall = run_child(workload, seed, seconds, traced)
    failures = list(result["failures"])
    attempted = result["attempted"]
    if seed == DEFAULT_SEED:
        attempted += len(result["digests"])
        failures += golden_failures(workload, result["digests"])
    metrics = dict(result["metrics"])
    if traced:
        model = result.get("model")
        metrics["model.fig4_ref_max_rel_err"] = \
            model["max_rel_err"] if model else 0.0
        if model:
            attempted += 1
            if model["failing"]:
                failures.append(f"fig4 model: {len(model['failing'])} of "
                                f"{model['checked']} means outside rtol "
                                f"{RTOL}: {model['failing'][0]}")
        wanted = spec["per_layer"]
    else:
        metrics["peak_rss_mb"] = rss_mb
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload}: metrics missing: {missing}")
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    details = {"workload": workload, "seed": seed, "trace": int(traced),
               "passes": result["passes"], "threads": result["threads"],
               "wall_s": wall, "failures": failures}
    if traced:
        self_ms = span_self_ms(result["spans"])
        details["span_coverage"] = sum(self_ms.values()) / (wall * 1e3)
        details["span_self_ms"] = self_ms
    return out, details


def print_metrics(workload, trace, out):
    for name, m in out["metrics"].items():
        print(f"{workload:<12} trace={trace} {name:<32} "
              f"{m['value']:>16.6g} {m['unit']}")


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    cache = {}
    with open(BUILD / "CMakeCache.txt") as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                         text=True, cwd=ROOT)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version[0] if version else compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
    }


def result_set(spec, workloads, seconds, out_path):
    runs = []
    for workload in workloads:
        for i, traced in [(i, False) for i in range(REPS)] + [(0, True)]:
            seed = DEFAULT_SEED + i
            out, details = measure(spec, workload, seed, seconds, traced)
            print_metrics(workload, int(traced), out)
            runs.append(details | {k: out[k] for k in
                                   ("correct", "attempted", "failed")}
                        | {"metrics": {k: v["value"] for k, v in
                                       out["metrics"].items()}})
    doc = {"schema": "taqos-bench-results/v1", "fingerprint": fingerprint(),
           "seconds": seconds, "runs": runs}
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    failed = sum(r["failed"] for r in runs)
    log(f"wrote {out_path}: {len(runs)} runs, {failed} failed checks")
    return 0 if failed == 0 else 1


def record_golden(workloads):
    golden = {}
    for workload in workloads:
        digests = {}
        for traced in (False, True):
            result, _, _ = run_child(workload, DEFAULT_SEED, 0, traced)
            digests |= result["digests"]
        golden[workload] = dict(sorted(digests.items()))
    with open(BENCH / "golden.json", "w") as f:
        json.dump(golden, f, indent=1)
        f.write("\n")
    log(f"wrote {BENCH / 'golden.json'}")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    try:
        build()
        if args.record_golden:
            return record_golden(names)
        if args.workload is not None:
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload!r}")
            out, _ = measure(spec, args.workload, args.seed, seconds,
                             bool(args.trace))
            print_metrics(args.workload, args.trace, out)
            print(json.dumps(out), flush=True)
            return 0
        if args.out is None:
            ap.error("give --workload (one run) or --out (a result set)")
        return result_set(spec, names, seconds, args.out)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
