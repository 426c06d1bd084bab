"""Benchmark of the hjhom command line on four fixed, seeded workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  NAME is a workload of perfbench/workloads.py,
or `all` to run every workload in turn.  hjhom is imported from ./src;
scratch output goes to ./.bench_work.  One CLI process runs at a time, on
the harness's CPU, with the BLAS and OpenMP pools pinned to one thread.

Each invocation is a fresh process that runs one hjhom command through
child.py.  --trace 0 times untraced invocations: it runs the workload once,
and again while the next run still fits in S seconds, and reports the
medians of wall_s (process start to exit) and peak_rss_mb (the child's
VmHWM), and setup_s, the median of SETUP_PROBES fresh processes that import
hjhom and parse the configuration.  Both times are rescaled to the
calibration speed (see spawn); the plain times are kept in the result file.
--trace 1 runs the workload once untraced and once traced, and reports the
per-layer calls, seconds and work counts, the tracing overhead (the
difference of the two rescaled times) and the part of the traced running
time that no layer accounts for.

Every invocation is checked by the workload's correctness gate, and every
later invocation of a run, the traced one included, must write the same
numeric CSVs byte for byte as the first.  The output is a summary
with provenance, then one JSON line {"correct", "attempted", "failed",
"metrics"}; `attempted` and `failed` count operations (table nodes, eps-runs
plus the effective solve, or solve commands).  The exit code is 0 whenever
the measurement completed, also when a gate failed; it is 2 when the tree
holds no hjhom source.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

from workloads import WORKLOADS, numeric_lines

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 7
TRACE_SETUP_PROBES = 3
DEADLINE_S = 170.0
# Other tenants of the machine slow a process by up to 1.8x in bursts of
# seconds, so end-to-end times are rescaled to the speed of a calibration
# burst run between SLICE_S-second slices of the child on the same CPU.
# CAL_REF_S is that burst's time on an unloaded 2-core Xeon VM.
SLICE_S = 0.5
CAL_REPS = 400
CAL_REF_S = 0.012
CAL_U = numpy.random.default_rng(0).random(512)
CAL_W = numpy.fft.rfft(numpy.random.default_rng(1).random(512))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE = ("import sys, hjhom, hjhom.cli; hjhom.cli.parse_config(sys.argv[1]); "
         "print(hjhom.__file__)")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **{v: "1" for v in THREAD_VARS})


def calibrate() -> float:
    """Seconds for one fixed burst of the small-array numpy work hjhom does."""
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        u = numpy.fft.irfft(numpy.fft.rfft(CAL_U) * CAL_W, n=CAL_U.size)
        numpy.maximum(numpy.roll(u, -1) - u, 0.0) ** 2
    return time.perf_counter() - t0


def spawn(argv, out_dir, tag, timeout):
    """Run one child to completion on the harness's CPU.

    Every SLICE_S seconds the child is stopped while one calibration burst
    runs.  Returns the child's running time (pauses excluded), that time with
    each running segment rescaled by CAL_REF_S over the mean of the bursts
    around it, the exit code and ru_maxrss in MB, which also counts the
    harness image the child was forked from.
    """
    with open(os.path.join(out_dir, f"{tag}.out"), "wb") as out, \
            open(os.path.join(out_dir, f"{tag}.err"), "wb") as err:
        before = calibrate()
        start = seg_start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        running = scaled = 0.0
        try:
            while True:
                exited = select.select([pidfd], [], [], SLICE_S)[0]
                late = time.perf_counter() - start > timeout
                if exited or late:
                    if not exited:
                        proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                else:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                segment = time.perf_counter() - seg_start
                after = calibrate()
                running += segment
                scaled += segment * 2.0 * CAL_REF_S / (before + after)
                if not os.WIFSTOPPED(status):
                    break
                before = after
                seg_start = time.perf_counter()
                os.kill(proc.pid, signal.SIGCONT)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return running, scaled, proc.returncode, usage.ru_maxrss / 1024.0


def read(path: str) -> str:
    with open(path, errors="replace") as fh:
        return fh.read()


def last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1] if lines else ""


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name: str, seed: int, seconds: int):
        make_spec, self.check = WORKLOADS[name]
        self.name, self.seed, self.seconds = name, seed, seconds
        self.spec = make_spec(seed)
        self.start = time.perf_counter()
        os.makedirs(WORK, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK)
        self.cfg_path = os.path.join(self.dir, f"{name}.cfg")
        with open(self.cfg_path, "w") as fh:
            fh.write(self.spec.text())
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = []
        self.records = []
        self.reference_csvs = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def setup_probes(self, count: int) -> tuple:
        """Import-and-parse probes as (running s, rescaled s) lists; one more
        probe runs first, only to warm the bytecode cache."""
        running, scaled = [], []
        for i in range(count + 1):
            run_s, scaled_s, code, _ = spawn([sys.executable, "-c", PROBE, self.cfg_path],
                                             self.dir, f"probe{i}", self.remaining())
            stdout = read(os.path.join(self.dir, f"probe{i}.out"))
            if code != 0 or not last_line(stdout).startswith(SRC + os.sep):
                stderr = read(os.path.join(self.dir, f"probe{i}.err"))
                raise SystemExit(f"hjhom does not import from {SRC}: {last_line(stderr)}")
            if i:
                running.append(run_s)
                scaled.append(scaled_s)
        return running, scaled

    def invoke(self, traced: bool = False) -> dict:
        """One CLI process on the workload, judged and compared with the first."""
        i = len(self.records)
        out_dir = os.path.join(self.dir, f"inv{i}")
        os.makedirs(out_dir)
        report_path = os.path.join(self.dir, f"inv{i}.json")
        argv = ([sys.executable, os.path.join(HERE, "child.py"), report_path]
                + ["--trace"] * traced
                + [self.spec.command, "--config", self.cfg_path, "--out", out_dir])
        wall, scaled, code, rss = spawn(argv, self.dir, f"inv{i}", self.remaining())
        report = {}
        if os.path.exists(report_path):
            with open(report_path) as fh:
                report = json.load(fh)
        rss = report.get("peak_rss_mb", rss)
        stdout = read(os.path.join(self.dir, f"inv{i}.out"))
        stderr = read(os.path.join(self.dir, f"inv{i}.err"))
        try:
            outcome = self.check(self.spec, out_dir, stdout, code)
            failed, gate_ok, detail = outcome.failed, outcome.gate_ok, outcome.detail
            quality = outcome.quality
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failed, gate_ok, quality = 0, False, {}
            detail = f"outputs unreadable: {type(exc).__name__}: {exc}"
        identical = self.same_as_first(out_dir)
        if code != 0:
            detail = f"exit {code}: {last_line(stderr)}; {detail}"
        if not identical:
            detail += "; numeric CSVs differ from the first invocation"
        ok = gate_ok and code == 0 and identical
        if failed == 0 and not ok:
            failed = self.spec.ops
        self.attempted += self.spec.ops
        self.failed += failed
        self.correct = self.correct and ok
        if failed or not ok:
            self.reasons.append(detail)
        record = {"wall_s": wall, "scaled_s": scaled, "exit": code, "peak_rss_mb": rss,
                  "failed": failed, "gate_ok": gate_ok, "identical": identical,
                  "detail": detail, "quality": quality, "report": report}
        self.records.append(record)
        return record

    def same_as_first(self, out_dir: str) -> bool:
        csvs = {os.path.basename(p): numeric_lines(p)
                for p in sorted(glob.glob(os.path.join(out_dir, "*.csv")))}
        if self.reference_csvs is None:
            self.reference_csvs = csvs
            return True
        return csvs == self.reference_csvs

    def measure(self) -> dict:
        _, setup = self.setup_probes(SETUP_PROBES)
        t0 = time.perf_counter()
        while True:
            self.invoke()
            spent = [r["wall_s"] for r in self.records]
            used = time.perf_counter() - t0
            if (used + statistics.median(spent) > self.seconds
                    or used + max(spent) > self.remaining() - 5.0):
                break
        scaled = [r["scaled_s"] for r in self.records]
        rss = [r["peak_rss_mb"] for r in self.records]
        self.samples = {"wall_s": len(scaled), "setup_s": len(setup),
                        "peak_rss_mb": len(rss)}
        return {"wall_s": (statistics.median(scaled), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (statistics.median(rss), "MB")}

    def measure_traced(self) -> dict:
        setup = statistics.median(self.setup_probes(TRACE_SETUP_PROBES)[0])
        plain = self.invoke()
        traced = self.invoke(traced=True)
        self.samples = {"untraced": 1, "traced": 1, "setup_probes": TRACE_SETUP_PROBES}
        spans = traced.pop("report")
        if spans["missing"]:
            self.reasons.append(f"trace sites missing: {spans['missing']}")
        metrics = {}
        for name, layer in spans["layers"].items():
            metrics[f"{name}.calls"] = (layer["calls"], "count")
            metrics[f"{name}.s"] = (layer["s"], "s")
            metrics[f"{name}.self_s"] = (layer["self_s"], "s")
        for name, value in spans["counts"].items():
            metrics[name] = (value, "s" if name.endswith("dt_min") else
                             "bytes" if name.endswith("bytes") else "count")
        apply = spans["layers"]["operators.apply_table"]
        metrics["operators.apply_table.us_per_call"] = (
            1e6 * apply["s"] / apply["calls"] if apply["calls"] else 0.0, "us")
        accounted = sum(layer["self_s"] for layer in spans["layers"].values())
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.setup_s"] = (setup, "s")
        metrics["trace.overhead_s"] = (traced["scaled_s"] - plain["scaled_s"], "s")
        metrics["trace.unaccounted_s"] = (traced["wall_s"] - setup - accounted, "s")
        return metrics

    def quality(self) -> dict:
        """Accuracy figures of the first invocation, the failure share and the
        plain (unscaled) median wall time."""
        return dict(self.records[0]["quality"],
                    failed_frac=self.failed / self.attempted,
                    plain_wall_s=statistics.median(r["wall_s"] for r in self.records))

    def finish(self, metrics: dict, trace: int) -> dict:
        result = {"correct": self.correct, "attempted": self.attempted,
                  "failed": self.failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        detail = {"workload": self.name, "seed": self.seed, "trace": trace,
                  "spec": self.spec.config, "t_factor": self.spec.t_factor,
                  "samples": self.samples, "quality": self.quality(),
                  "reasons": self.reasons, "invocations": self.records,
                  "provenance": provenance(), "result": result}
        for i in range(len(self.records)):
            shutil.rmtree(os.path.join(self.dir, f"inv{i}"), ignore_errors=True)
        with open(os.path.join(self.dir, "result.json"), "w") as fh:
            json.dump(detail, fh, indent=1, default=str)
        return detail


def provenance() -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "hjhom", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest(), "cpu": cpu,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: "1" for v in THREAD_VARS}}


def summarize(detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}"
          f"  t_factor {detail['t_factor']}  samples {detail['samples']}")
    metrics = detail["result"]["metrics"]
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:<14.6g} {m['unit']}")
    res = detail["result"]
    for name, value in detail["quality"].items():
        count = ""
        if name == "failed_frac":
            count = f"({res['failed']}/{res['attempted']} operations)"
        print(f"  {name:<48} {value:<14.6g} {count}")
    for reason in detail["reasons"]:
        print(f"  failure: {reason}")
    print(f"  gate: {detail['invocations'][0]['detail']}")
    print("provenance " + json.dumps(detail["provenance"]))


def run_one(name: str, seed: int, seconds: int, trace: int) -> dict:
    run = Run(name, seed, seconds)
    metrics = run.measure_traced() if trace else run.measure()
    detail = run.finish(metrics, trace)
    summarize(detail)
    return detail["result"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hjhom", "cli.py")):
        print(f"no hjhom source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_one(name, args.seed, args.seconds, args.trace)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{k}": v for name, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
