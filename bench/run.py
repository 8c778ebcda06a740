"""quditkd benchmark: fresh-process CLI latency, and per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload readme-cli --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

--trace 0 times each request of the workload as a fresh `python -m quditkd`
process (PYTHONPATH=src, single-threaded BLAS), one client in a closed loop.
--trace 1 instead runs the same requests in this process through
quditkd.cli.main, once plain and once with spans around the public
functions of every module, and reads import costs from -X importtime.

Every request's output is checked (see workloads.py). Human-readable lines
go to stdout first; the last line is one JSON object with the keys correct,
attempted, failed and metrics. Details, the environment and the spans are
written under .bench_out/. bench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import mmap
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, Request, check_output, pass_count, plan  # noqa: E402

SRC = Path("src")
OUT_DIR = Path(".bench_out")
CHILD_VARS = {"PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_STMT = "import quditkd.cli"
MIN_SETUP_PROBES = 3
IMPORT_PROBES = 3
REQUEST_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0
TAIL_BEYOND = 10
REF_CHUNK = 10_000  # loop iterations in one reference unit


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten of n samples above it
    (nearest-rank), or None when n is too small for any."""
    if n <= TAIL_BEYOND:
        return None
    return 100 * (n - TAIL_BEYOND) // n


def nearest_rank(values: list[float], p: int) -> float:
    ordered = sorted(values)
    k = max(-(-p * len(ordered) // 100) - 1, 0)
    return ordered[k]


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """req_tail value and its label; the slowest request when ten or fewer ran."""
    p = tail_percentile(len(latencies))
    if p is None:
        return max(latencies), "max"
    return nearest_rank(latencies, p), f"p{p}"


# ---------------------------------------------------------------------------
# reference clock


# counts chunks of REF_CHUNK loop iterations into an 8-byte file it maps
_SPIN = f"""
import mmap, sys

def spin(counter):
    n = 0
    while True:
        s = 0
        for i in range({REF_CHUNK}):
            s += i * i % 7
        n += 1
        counter[:8] = n.to_bytes(8, "little")

with open(sys.argv[1], "r+b") as fh:
    spin(mmap.mmap(fh.fileno(), 8))
"""


class Speedometer:
    """Counts chunks of fixed pure-Python work in a process of its own.

    The machine is shared: the speed of both its cores drifts, mostly
    together, by a third or more within a minute. quditkd runs on one core
    and leaves the other idle. The chunks this process finishes there per
    second of request time give the run's reference rate, and times
    multiplied by that rate drift less than seconds do. See README.md for
    the measurements behind this.
    """

    def __enter__(self) -> "Speedometer":
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / "speedometer.bin"
        path.write_bytes(bytes(8))
        self._file = open(path, "r+b")
        self._counter = mmap.mmap(self._file.fileno(), 8)
        self._proc = subprocess.Popen([sys.executable, "-c", _SPIN, str(path)], stdout=subprocess.DEVNULL)
        deadline = time.monotonic() + 30.0
        while self.read() == 0:
            if time.monotonic() > deadline or self._proc.poll() is not None:
                self.__exit__()
                raise RuntimeError("reference process did not start")
            time.sleep(0.01)
        return self

    def read(self) -> int:
        while True:
            # two equal reads rule out catching the writer mid-update
            first = self._counter[:8]
            if first == self._counter[:8]:
                return int.from_bytes(first, "little")

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._counter.close()
        self._file.close()


# ---------------------------------------------------------------------------
# fresh-process requests


@dataclass
class Spawned:
    latency_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int | None  # None: killed at the timeout
    stdout: str
    stderr: str
    ref_units: int


@dataclass
class Outcome:
    key: str
    argv: list[str]
    latency_s: float
    cpu_s: float
    rss_mb: float
    ref_units: int
    exit_code: int | None
    error: str | None = None


def child_env() -> dict[str, str]:
    return {**os.environ, **CHILD_VARS}


def spawn(cmd: list[str], timeout: float, meter: Callable[[], int] = lambda: 0) -> Spawned:
    """Run cmd to completion. Wall time from outside, CPU and peak RSS from
    wait4, and the reference units `meter` counted while it ran."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "stdout.tmp", "w+b") as out, open(OUT_DIR / "stderr.tmp", "w+b") as err:
        units = meter()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill() -> None:
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            latency = time.perf_counter() - start
            units = meter() - units
            with lock:
                state["reaped"] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    return Spawned(latency, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   None if state["killed"] else proc.returncode, stdout, stderr, units)


def run_request(workload: str, req: Request, timeout: float, finite_diffs: list[int],
                meter: Callable[[], int] = lambda: 0) -> Outcome:
    run = spawn([sys.executable, "-m", "quditkd", *req.argv], timeout, meter)
    outcome = Outcome(req.key, list(req.argv), run.latency_s, run.cpu_s, run.rss_mb, run.ref_units, run.exit_code)
    if run.exit_code is None:
        outcome.error = f"timed out after {timeout:.0f} s"
    elif run.exit_code != 0:
        outcome.error = f"exit code {run.exit_code}: {run.stderr.strip()[-300:]}"
    else:
        outcome.error = check_output(workload, req, run.stdout, finite_diffs)
    return outcome


def probe(args: list[str]) -> Spawned:
    """A fresh interpreter running `python <args>`; it must succeed."""
    run = spawn([sys.executable, *args], REQUEST_TIMEOUT_S)
    if run.exit_code != 0:
        raise RuntimeError(f"python {' '.join(args)} exited {run.exit_code}: {run.stderr.strip()[-300:]}")
    return run


def measure_e2e(workload: str, seed: int, seconds: float) -> dict:
    wl = WORKLOADS[workload]
    passes = plan(wl, seed, pass_count(wl, seconds))
    began = time.perf_counter()
    outcomes: list[Outcome] = []
    finite_diffs: list[int] = []
    with Speedometer() as speedo:
        setup = [probe(["-c", IMPORT_STMT]).latency_s for _ in range(MIN_SETUP_PROBES - len(passes))]
        for requests in passes:
            for req in requests:
                left = RUN_DEADLINE_S - (time.perf_counter() - began)
                if left < 1.0:
                    outcomes.append(Outcome(req.key, list(req.argv), 0.0, 0.0, 0.0, 0, None, "run deadline reached"))
                    continue
                outcomes.append(run_request(workload, req, min(REQUEST_TIMEOUT_S, left), finite_diffs, speedo.read))
            setup.append(probe(["-c", IMPORT_STMT]).latency_s)
    ran = [o for o in outcomes if o.latency_s > 0]
    failed = sum(o.error is not None for o in outcomes)
    latencies = [o.latency_s for o in ran]
    # reference units per second while the run's requests ran; every time
    # below is converted at this one rate
    rate = sum(o.ref_units for o in ran) / sum(latencies)
    ref = [s * rate for s in latencies]
    tail, tail_label = tail_latency(ref)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup), "probes"),
        "wall_ref": (sum(ref) / len(passes), len(passes), "passes"),
        "req_p50_ref": (statistics.median(ref), len(ref), "requests"),
        "req_tail_ref": (tail, len(ref), f"requests, {tail_label}"),
        "cpu_ref": (sum(o.cpu_s for o in ran) * rate / len(passes), len(passes), "passes"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), len(outcomes), "requests"),
        "ok_ratio": ((len(outcomes) - failed) / len(outcomes), len(outcomes), "requests"),
    }
    return {
        "metrics": metrics,
        "attempted": len(outcomes),
        "failed": failed,
        "extra": {
            "fail_ratio": failed / len(outcomes),
            "finite_key_rows_changed": sum(finite_diffs),
            # the same timings in plain seconds, which drift with the machine
            "wall_s": sum(latencies) / len(passes),
            "req_p50_s": statistics.median(latencies),
            "req_tail_s": tail_latency(latencies)[0],
            "cpu_s": sum(o.cpu_s for o in ran) / len(passes),
            "ref_units_per_s": rate,
            "setup_probes_s": setup,
            "requests": [asdict(o) for o in outcomes],
        },
    }


# ---------------------------------------------------------------------------
# traced in-process run


def parse_importtime(text: str) -> dict[str, float]:
    """import.* metrics from `python -X importtime` output (microseconds)."""
    total = own = 0
    first: dict[str, int] = {}
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:") or "imported package" in parts[2]:
            continue
        self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
        name = parts[2].strip()
        top_level = parts[2].startswith(" ") and not parts[2].startswith("  ")
        first.setdefault(name, cum_us)
        if name == "quditkd" or name.startswith("quditkd."):
            own += self_us
            if top_level:
                total += cum_us
    return {
        "import.total_s": total / 1e6,
        "import.scipy_stats_s": first.get("scipy.stats", 0) / 1e6,
        "import.numpy_s": first.get("numpy", 0) / 1e6,
        "import.quditkd_own_s": own / 1e6,
    }


def import_profile() -> dict[str, float]:
    runs = [parse_importtime(probe(["-X", "importtime", "-c", IMPORT_STMT]).stderr) for _ in range(IMPORT_PROBES)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def run_in_process(cli, workload: str, req: Request, finite_diffs: list[int]) -> tuple[float, str | None]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(req.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash fails this request; the run goes on
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}: {err.getvalue().strip()[-300:]}"
    return elapsed, check_output(workload, req, out.getvalue(), finite_diffs)


def measure_traced(workload: str, seed: int) -> dict:
    from tracing import FIELDS, Tracer, layer_metrics, self_time_error

    imports = import_profile()
    os.environ.update(CHILD_VARS)  # before numpy loads, as in the children
    sys.path.insert(0, str(SRC.resolve()))
    import quditkd.cli as cli

    requests = plan(WORKLOADS[workload], seed, 1)[0]
    errors: list[str] = []
    finite_diffs: list[int] = []
    # the first pass pays first-call costs; only the second, warm one is
    # compared with the traced pass
    for _ in range(2):
        plain = 0.0
        for req in requests:
            elapsed, error = run_in_process(cli, workload, req, finite_diffs)
            plain += elapsed
            errors += [f"{req.key}: {error}"] if error else []
    tracer = Tracer()
    tracer.install()
    traced = 0.0
    try:
        for i, req in enumerate(requests):
            tracer.request = i
            elapsed, error = run_in_process(cli, workload, req, finite_diffs)
            traced += elapsed
            errors += [f"{req.key} (traced): {error}"] if error else []
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    gap = self_time_error(summary)
    if gap > 0.05:
        errors.append(f"self times miss cli.main by {gap:.1%}")
    metrics = {**imports, **layer_metrics(tracer, summary), "trace.overhead_ratio": traced / plain - 1.0}
    # one spans file per workload, so repeated traced runs do not pile up
    spans_path = OUT_DIR / f"{workload}.spans"
    OUT_DIR.mkdir(exist_ok=True)
    with open(spans_path, "wb") as fh:
        tracer.spans.tofile(fh)
    return {
        "metrics": {k: (v, len(requests), "traced requests") for k, v in metrics.items()},
        "attempted": 3 * len(requests),
        "failed": len(errors),
        "extra": {
            "errors": errors,
            "self_time_gap": gap,
            "not_found": tracer.missing,
            "untraced_s": plain,
            "traced_s": traced,
            "spans": {"file": str(spans_path), "fields": list(FIELDS),
                      "names": tracer.names, "count": len(tracer.spans) // len(FIELDS),
                      "requests": [list(r.argv) for r in requests]},
        },
    }


# ---------------------------------------------------------------------------
# reporting


def git_commit() -> str:
    try:
        ref = Path(".git/HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = Path(".git") / name
        if loose.exists():
            return loose.read_text().strip()
        for line in Path(".git/packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        **versions,
        "git_commit": git_commit(),
        "child_env": CHILD_VARS,
    }


INFO_KEYS = ("fail_ratio", "finite_key_rows_changed", "wall_s", "req_p50_s", "req_tail_s", "cpu_s",
             "ref_units_per_s", "self_time_gap", "untraced_s", "traced_s")


def run_workload(workload: str, seed: int, seconds: float, trace: int, units: dict[str, str]) -> dict:
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    result = measure_traced(workload, seed) if trace else measure_e2e(workload, seed, seconds)
    env["loadavg_end"] = os.getloadavg()
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace, environment=env)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, (value, n, what) in result["metrics"].items():
        print(f"{workload:16s} {name:48s} {value:14.6g} {units[name]:6s} n={n} {what}")
    for key in INFO_KEYS:
        if key in result["extra"]:
            print(f"{workload:16s} {key:48s} {result['extra'][key]:14.6g} (info)")
    failures = result["extra"].get("errors", []) + [
        f"{r['key']}: {r['error']}" for r in result["extra"].get("requests", []) if r["error"]
    ]
    for line in failures:
        print(f"{workload:16s} FAILED {line}", file=sys.stderr)
    print(f"details: {path}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="sets how many passes over the request list run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quditkd" / "cli.py").is_file():
        print(f"error: {SRC / 'quditkd'} not found; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, args.trace, units) for w in names]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    # with --workload all, metric names carry their workload as a prefix
    metrics = {
        (name if len(results) == 1 else f"{r['workload']}.{name}"): {"value": value, "unit": units[name]}
        for r in results
        for name, (value, _, _) in r["metrics"].items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
