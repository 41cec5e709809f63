"""Benchmark driver for minorclub.

    python3 perfbench/run.py --workload cograph --seed 1 --seconds 20 --trace 0

(workloads: cograph, bipperm, atfree, fallback; run each in turn for all of
them.)  Runs one workload as a closed loop: one client, one process, no
threads; the next instance starts only after the previous one returns.  Each
instance is one in-process ``minorclub.cli.main([<command>, ..., "--input",
<file>, "--json"])`` call, timed from argument parsing to the emitted report.
Every answer is checked (see check.py), and every tenth completed instance
is run a second time to check that its report is byte-identical.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same instances untraced and then traced, and prints per-layer
metrics.  The last line of standard output is one JSON object.

Times are corrected for contention on the host.  On a shared machine the
same call can take 1.7 times as long from one second to the next, because
the whole machine switches between a fast and a slow state.  A fixed probe,
a BFS diameter computation in the benchmark's own code (independent of the
library), is timed between consecutive calls; each call's time is scaled by
PROBE_MS / (mean of the probes just before and after it), where PROBE_MS is
the probe's time in the fast state on the machine the workloads were sized
on.  The latencies therefore read as milliseconds on that machine when it is
quiet; being one fixed scale, it does not change any ratio between runs.
A change to the library moves the call times but not the probe, so the
correction keeps the change's effect while removing the machine's state.
The latencies are corrected; the uncorrected ones are printed on a line
before the JSON.  setup_s, which runs in child processes, and the per-layer
self times are not corrected.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer  # noqa: E402

SETUP_REPEATS = 15
RECHECK_EVERY = 10  # every tenth completed instance is run again
OVERRUN_S = 60  # an instance still running this long after the deadline is aborted
PROBE_MS = 0.75  # probe time in the fast state; see the module docstring


class Overrun(BaseException):
    """Raised by the interval timer inside an instance that runs too long."""


def _overrun(signum, frame):
    raise Overrun


def import_cli():
    """Import minorclub.cli from this checkout's src/ and nowhere else."""
    if not (SRC / "minorclub" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'minorclub'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from minorclub import cli
    if Path(cli.__file__).resolve().parent != SRC / "minorclub":
        sys.exit(f"error: imported minorclub from {cli.__file__}, not from {SRC}")
    return cli


class Probe:
    """The machine-state probe: a fixed BFS diameter computation."""

    def __init__(self):
        self.rows = gen.base_graph("random_cograph", 60, 0)
        self.times: list[float] = []
        self.last = self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        check.diameter(self.rows)
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]

    def timed(self, fn, *args, **kwargs):
        """Run fn; return (its seconds, local probe seconds, its result)."""
        before = self.last
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        self.last = self()
        return elapsed, (before + self.last) / 2, result

    @staticmethod
    def corrected(seconds: float, local: float) -> float:
        return seconds * PROBE_MS / 1000 / local


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing minorclub.cli; the
    first, untimed launch writes the bytecode cache."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import minorclub.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    def __init__(self, cli, record: dict, probe: Probe):
        self.cli = cli
        self.record = record
        self.probe = probe

    def call(self, req: workloads.Request, path: Path, abort_at: float):
        """One CLI call: (problem or None, stdout).  The call is aborted at
        ``abort_at`` so that a run always ends."""
        out, err = io.StringIO(), io.StringIO()
        argv = req.argv + ["--input", str(path), "--json"]
        signal.setitimer(signal.ITIMER_REAL, max(1e-3, abort_at - time.perf_counter()))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            problem = None if code == 0 else f"exit {code}: {err.getvalue().strip()}"
        except Overrun:
            problem = "aborted: still running long after the run's deadline"
        except Exception as exc:  # an uncaught library error fails the instance
            problem = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return problem, out.getvalue()

    def run(self, planned, deadline: float, tracer: Tracer | None = None):
        """Closed loop over ``planned`` until it is done or the deadline
        passes.  Returns one row per attempted instance."""
        rows = []
        WORK.mkdir(exist_ok=True)
        for i, (tier, index, seed) in enumerate(planned):
            if time.perf_counter() >= deadline:
                break
            req = workloads.build(tier, index, seed, self.record)
            path = WORK / f"instance{i}"
            path.write_bytes(req.payload)
            abort_at = deadline + OVERRUN_S
            if tracer is None:
                elapsed, local, (problem, stdout) = self.probe.timed(
                    self.call, req, path, abort_at)
            else:
                elapsed, local, (problem, stdout) = self.probe.timed(
                    tracer.span, "cli.main", self.call, req, path, abort_at)
                tracer.end_instance()
            wrong = None
            if problem is None:
                wrong = check.check_answer(req.expect, req.rows, json.loads(stdout))
            rows.append({"req": req, "path": path, "raw": elapsed, "local": local,
                         "problem": problem or wrong, "wrong": wrong is not None,
                         "sha": hashlib.sha256(stdout.encode()).hexdigest()})
        return rows

    def recheck(self, rows) -> list[str]:
        """Run every RECHECK_EVERY-th completed instance again; its report
        must have the same SHA-256."""
        bad = []
        done = [r for r in rows if r["problem"] is None]
        for r in done[::RECHECK_EVERY]:
            problem, stdout = self.call(r["req"], r["path"], time.perf_counter() + OVERRUN_S)
            if problem or hashlib.sha256(stdout.encode()).hexdigest() != r["sha"]:
                bad.append(r["req"].key)
        return bad


def scaling_exponents(rows, families) -> dict[str, tuple[float, str]]:
    """Least-squares slope of log(median completed latency) on log(n); 0
    for a family the workload does not run."""
    out = {}
    for fam in families:
        by_n: dict[int, list[float]] = {}
        for r in rows:
            if r["req"].tier.family == fam and r["problem"] is None:
                by_n.setdefault(r["req"].tier.n, []).append(r["latency"])
        pts = [(math.log(n), math.log(statistics.median(v))) for n, v in by_n.items()]
        slope = 0.0
        if len(pts) >= 2:
            mx = statistics.fmean(x for x, _ in pts)
            my = statistics.fmean(y for _, y in pts)
            sxx = sum((x - mx) ** 2 for x, _ in pts)
            slope = sum((x - mx) * (y - my) for x, y in pts) / sxx
        out[f"scaling_exp.{fam}"] = (slope, "exponent")
    return out


def report(rows, recheck_bad, metrics) -> None:
    failures = [r for r in rows if r["problem"] is not None]
    for r in failures:
        print(f"failed {r['req'].key} {' '.join(r['req'].argv)}: {r['problem']}")
    for key in recheck_bad:
        print(f"nondeterministic report: {key}")
    correct = bool(rows) and not recheck_bad and not any(r["wrong"] for r in rows)
    print(json.dumps({
        "correct": correct,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    signal.signal(signal.SIGALRM, _overrun)
    record = json.loads((HERE / "expected.json").read_text())
    probe = Probe()
    runner = Runner(cli, record, probe)
    planned = workloads.plan(args.workload, args.seed)
    try:
        if not args.trace:
            setup_s = measure_setup()
            rows = runner.run(planned, time.perf_counter() + args.seconds)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            bad = runner.recheck(rows)
        else:
            # Same instances twice: untraced for half the time, then traced.
            rows = runner.run(planned, time.perf_counter() + args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run(planned[:len(rows)],
                                    time.perf_counter() + 3 * args.seconds, tracer)
            finally:
                tracer.uninstall()
            bad = runner.recheck(rows)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for r in rows + (traced if args.trace else []):
        r["latency"] = probe.corrected(r["raw"], r["local"]) * 1000
    if not args.trace:
        lat = [None if r["problem"] else r["latency"] for r in rows]
        raw = [None if r["problem"] else r["raw"] * 1000 for r in rows]
        print(f"uncorrected: p50 {check.percentile(raw, 50):.3f} ms, "
              f"p90 {check.percentile(raw, 90):.3f} ms; probe fastest "
              f"{min(probe.times) * 1000:.3f} ms, median "
              f"{statistics.median(probe.times) * 1000:.3f} ms")
        metrics = {
            "setup_s": (setup_s, "s"),
            "lat_p50_ms": (check.percentile(lat, 50), "ms"),
            "lat_p90_ms": (check.percentile(lat, 90), "ms"),
            "ok_frac": (1 - lat.count(None) / max(1, len(lat)), "ratio"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        both = len(traced)
        plain = sum(r["latency"] for r in rows[:both])
        metrics = tracer.metrics()
        metrics["trace.overhead_frac"] = (
            (sum(r["latency"] for r in traced) - plain) / plain, "ratio")
        families = sorted({t.family for ws in workloads.WORKLOADS.values() for t in ws
                           if t.family not in workloads.TEXT_FAMILIES})
        metrics.update(scaling_exponents(rows, families))
        rows = rows + traced
    report(rows, bad, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
