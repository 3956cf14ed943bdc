"""Benchmark of the semiam command line, end to end and layer by layer.

    python3 benchmarks/run.py --workload gap --seed 1 --seconds 30 --trace 0

--trace 0 drives the real CLI as a child process, one call at a time (a
closed loop with one client), checks every output and reports the
end-to-end metrics, with each call's time scaled to a reference CPU speed
measured by probes that share the child's CPU (see ``spawn``).  --trace 1 calls the same entry point,
``semiam.cli.main``, in process, alternating untraced passes with passes
traced by ``spans.Tracer``, and reports per-layer self times and counts
plus the tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; lines before it starting
with "#" give the machine, sample counts and failures.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import selectors
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import inputs
import spans

ROOT = Path(__file__).resolve().parent.parent
SETUP_SPAWNS = 25
CALL_TIMEOUT_S = 60.0
SPECTRUM_MAX_SIZE = 8
PROBE_EVERY_S = 0.02
# CPU time of one probe() on an otherwise idle core of the 2-CPU, 2.1 GHz
# Xeon host the benchmark was tuned on, under Python 3.11
PROBE_REF_S = 135e-6

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("semilattice.check_table.self_s", "s", "lower"),
    ("semilattice.check_table.calls", "count", "lower"),
    ("semilattice.Semilattice.self_s", "s", "lower"),
    ("semilattice.Semilattice.calls", "count", "lower"),
    ("enumeration.canonical_table.self_s", "s", "lower"),
    ("enumeration.canonical_table.calls", "count", "lower"),
    ("enumeration.enumerate_by_extension.self_s", "s", "lower"),
    ("enumeration.gap_instances.self_s", "s", "lower"),
    ("enumeration.instances", "count", "higher"),
    ("diagonal.diagonal_recursive.self_s", "s", "lower"),
    ("diagonal.diagonal_recursive.calls", "count", "lower"),
    ("diagonal.verify_diagonal.self_s", "s", "lower"),
    ("diagonal.verify_diagonal.calls", "count", "lower"),
    ("diagonal.unit.self_s", "s", "lower"),
    ("diagonal.DiagonalTensor.am.self_s", "s", "lower"),
    ("moebius.mobius_table.self_s", "s", "lower"),
    ("moebius.mobius_table.calls", "count", "lower"),
    ("moebius.diagonal_via_mobius.self_s", "s", "lower"),
    ("moebius.nonzeros", "count", "lower"),
    ("clifford.build_clifford.self_s", "s", "lower"),
    ("clifford.build_clifford.calls", "count", "lower"),
    ("clifford.unit_solve.self_s", "s", "lower"),
    ("clifford.diagonal_solve.self_s", "s", "lower"),
    ("exactlinalg.add_row.self_s", "s", "lower"),
    ("exactlinalg.add_row.calls", "count", "lower"),
    ("exactlinalg.rows_pivot", "count", "lower"),
    ("exactlinalg.rows_dependent", "count", "lower"),
    ("exactlinalg.rows_inconsistent", "count", "lower"),
    ("exactlinalg.pivot_ratio", "ratio", "higher"),
    ("exactlinalg.solve.self_s", "s", "lower"),
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.untraced_items_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


@dataclass
class Call:
    """One command line call and the check its output must pass."""

    argv: list
    check: Callable  # (exit code, stdout bytes) -> None or a reason


@dataclass
class Workload:
    calls: list
    items: int  # work items in one pass over the calls
    item: str


def make_workload(name: str, seed: int) -> Workload:
    """The calls of one pass.  gap and spectrum take no input, so the
    seed only changes the queries workload."""
    if name == "gap":
        return Workload(
            [Call(["gap-search"], checks.check_gap)],
            checks.GAP_GOLDEN["instances"], "instances",
        )
    if name == "spectrum":
        return Workload(
            [Call(["spectrum", "--max-size", str(SPECTRUM_MAX_SIZE)], checks.check_spectrum)],
            sum(checks.SPECTRUM_COUNTS), "classes",
        )
    pool = inputs.query_pool(seed)
    return Workload(
        [Call(q.argv, lambda code, out, q=q: checks.check_query(q, code, out)) for q in pool],
        len(pool), "calls",
    )


class Tally:
    """Calls attempted and failed.  An output already verified for the
    same call is accepted by comparing bytes, so each check runs once."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._verified = {}

    def record(self, index: int, call: Call, code: int, out: bytes, error: str = None):
        self.attempted += 1
        if error is None and self._verified.get(index) != (code, out):
            error = call.check(code, out)
            if error is None:
                self._verified[index] = (code, out)
        if error is not None:
            self.failures.append(f"{call.argv[0]}: {error}")


@dataclass
class Child:
    wall: float  # seconds on the clock
    elapsed: float  # the same, at the probe's reference speed
    code: int
    out: bytes
    err: bytes
    max_rss_kb: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SEMIAM_WORKERS", None)  # would change how gap-search runs
    return env


def spawn(argv: list, env: dict) -> Child:
    """Run the CLI once, sampling the CPU's speed while it runs.

    The child and this process share one CPU (see ``pin_to_one_cpu``),
    so a probe taken while the child waits measures the CPU the child
    runs on.  The probes' own CPU time is taken off the wall time, and
    the rest is scaled by the mean speed the probes saw.  Peak RSS comes
    from this child's own rusage.
    """
    samples = [probe()]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "semiam.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    streams = {out_fd: [], err_fd: []}
    probe_cpu, next_probe = 0.0, start + PROBE_EVERY_S
    try:
        with selectors.DefaultSelector() as selector:
            for fd in streams:
                selector.register(fd, selectors.EVENT_READ)
            while selector.get_map():
                now = time.perf_counter()
                if now - start > CALL_TIMEOUT_S:
                    proc.kill()
                if now >= next_probe:
                    cpu_start = time.thread_time()
                    samples.append(probe())
                    probe_cpu += time.thread_time() - cpu_start
                    next_probe += PROBE_EVERY_S
                for key, _ in selector.select(max(0.0, next_probe - time.perf_counter())):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        streams[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:  # left by an exception: stop the child
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    samples.append(probe())
    speed = statistics.fmean(PROBE_REF_S / s for s in samples)
    return Child(
        wall, (wall - probe_cpu) * speed, proc.returncode,
        b"".join(streams[out_fd]), b"".join(streams[err_fd]),
        usage.ru_maxrss,
    )


def probe_work() -> Fraction:
    """A fixed piece of interpreter work: dict updates and rational sums."""
    counts, total = {}, Fraction(0)
    for i in range(1, 60):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
        total += Fraction(i % 7 + 1, i % 5 + 1)
    return total


def probe() -> float:
    """CPU seconds this process needs for probe_work() right now.

    A shared host runs this machine's CPUs at speeds that change by up to
    a factor of two every few seconds, with each CPU on its own.  CPU time,
    not wall time, so that being preempted by the child does not count.
    """
    probe_work()  # the child ran last: refill the caches before timing
    start = time.thread_time()
    probe_work()
    return time.thread_time() - start


def pin_to_one_cpu() -> int:
    """Keep this process, and the children it starts, on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for _ in range(200):  # let the interpreter specialise probe_work()
        probe()
    return cpu


def p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def time_left(start: float, seconds: float, pass_times: list) -> bool:
    """Whether another pass of median length fits in the run."""
    if not pass_times:
        return True
    return time.perf_counter() - start + statistics.median(pass_times) <= seconds


def probe_setup(env: dict) -> float:
    child = spawn(["--help"], env)
    if child.code != 0 or not child.out.startswith(b"usage: semiam"):
        raise RuntimeError(f"the CLI does not start: {child.err.decode()[-2000:]}")
    return child


def cli_run(workload: Workload, seconds: float, tally: Tally):
    env = child_env()
    cpu = pin_to_one_cpu()
    probe_setup(env)  # the first start fills the bytecode caches
    # setup probes are spread over the run, so they see the same machine
    setup, probe_every = [], seconds / SETUP_SPAWNS
    passes, children, pass_times = [], [], []
    start = next_probe = time.perf_counter()
    while time_left(start, seconds, pass_times):
        pass_start = time.perf_counter()
        passes.append([])
        for index, call in enumerate(workload.calls):
            child = spawn(call.argv, env)
            error = None
            if child.code not in (0, 2):  # a crash, or killed after CALL_TIMEOUT_S
                error = f"exit {child.code}: {child.err.decode()[-500:]}"
            tally.record(index, call, child.code, child.out, error)
            passes[-1].append(child)
            while time.perf_counter() >= next_probe:
                setup.append(probe_setup(env))
                next_probe += probe_every
        pass_times.append(time.perf_counter() - pass_start)
    while len(setup) < SETUP_SPAWNS:
        setup.append(probe_setup(env))
    children = [child for calls in passes for child in calls]
    ok = (tally.attempted - len(tally.failures)) / tally.attempted

    def timings(clock: str) -> dict:
        rates = [workload.items / sum(getattr(c, clock) for c in calls) for calls in passes]
        latencies = [getattr(c, clock) for c in children]
        return {
            "setup_s": (statistics.median(getattr(c, clock) for c in setup), "s", len(setup)),
            "items_per_s": (statistics.median(rates), "1/s", len(rates)),
            "query_p50_ms": (1000 * statistics.median(latencies), "ms", len(latencies)),
            "query_p90_ms": (1000 * p90(latencies), "ms", len(latencies)),
        }

    print(f"# CLI children and probes pinned to CPU {cpu}; wall-clock figures:")
    for name, (value, unit, samples) in timings("wall").items():
        print(f"#   {name} = {value:.6g} {unit} (n={samples})")
    return {
        **timings("elapsed"),
        "peak_rss_mb": (max(c.max_rss_kb for c in children) / 1024, "MB", len(children)),
        "ok_ratio": (ok, "ratio", tally.attempted),
    }


def in_process_pass(main, workload: Workload, tally: Tally) -> float:
    """Call the CLI entry point once per call; returns the busy time."""
    busy = 0.0
    for index, call in enumerate(workload.calls):
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed call, not the end of the run
                code, error = -1, f"raised {exc!r}"
        busy += time.perf_counter() - start
        tally.record(index, call, code, buf.getvalue().encode(), error)
    return busy


def layer_metrics(tracer: spans.Tracer) -> dict:
    """The per-layer values of one traced pass."""
    totals = spans.self_times(tracer.spans)
    counters = tracer.finish_counters()
    fed = sum(counters.get(f"exactlinalg.rows_{k}", 0) for k in ("pivot", "dependent", "inconsistent"))
    counters["exactlinalg.pivot_ratio"] = counters.get("exactlinalg.rows_pivot", 0) / fed if fed else 0.0
    values = {}
    for name, _, _ in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field == "self_s":
            values[name] = totals.get(span, (0.0, 0))[0]
        elif field == "calls":
            values[name] = totals.get(span, (0.0, 0))[1]
        elif not name.startswith("trace."):
            values[name] = counters.get(name, 0)
    return values


def traced_run(workload: Workload, seconds: float, tally: Tally):
    sys.path.insert(0, str(ROOT / "src"))
    import semiam.cli

    os.environ.pop("SEMIAM_WORKERS", None)
    tracer = spans.Tracer()
    untraced, traced, passes, pass_times = [], [], [], []
    start = time.perf_counter()
    while time_left(start, seconds, pass_times):
        pass_start = time.perf_counter()
        untraced.append(workload.items / in_process_pass(semiam.cli.main, workload, tally))
        tracer.reset()
        with tracer.installed():
            busy = in_process_pass(semiam.cli.main, workload, tally)
        traced.append(workload.items / busy)
        passes.append(layer_metrics(tracer))
        pass_times.append(time.perf_counter() - pass_start)
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in passes[0]:
            middle = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = (middle(p[name] for p in passes), unit, len(passes))
    rate, plain = statistics.median(traced), statistics.median(untraced)
    metrics["trace.items_per_s"] = (rate, "1/s", len(traced))
    metrics["trace.untraced_items_per_s"] = (plain, "1/s", len(untraced))
    metrics["trace.overhead_pct"] = (100 * (plain / rate - 1), "%", len(traced))
    return metrics


def git_revision() -> str:
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
    return "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "git": git_revision(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["gap", "spectrum", "queries"], required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "semiam" / "cli.py").is_file():
        print(f"error: no semiam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed)
    tally = Tally()
    print("# machine " + json.dumps(machine(), sort_keys=True))
    print(f"# workload {args.workload}: {len(workload.calls)} calls, {workload.items} {workload.item} per pass")
    try:
        run = traced_run if args.trace else cli_run
        metrics = run(workload, args.seconds, tally)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit, samples) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} (n={samples})")
    failed = len(tally.failures)
    print(f"# fail_ratio = {failed}/{tally.attempted}")
    for reason in tally.failures[:10]:
        print(f"# FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
