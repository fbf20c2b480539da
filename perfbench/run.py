#!/usr/bin/env python3
"""Outside-in benchmark of the afflap CLI.

    python3 perfbench/run.py --workload spectrum-km1 --seed 1 --seconds 34 --trace 0

Run from the root of a checkout.  Each repetition runs one fresh
``python3 -m afflap ... --format json`` process from the checkout's ``src``
tree, in a closed loop with one client: the next repetition starts only after
the previous one has exited, so at most ``--jobs`` (2) worker processes are
busy at a time.  Every repetition is checked against the committed golden
output, and the ``--jobs 2`` workloads also against the same command at
``--jobs 1``.

``--trace 0`` reports the end-to-end metrics (tracing off); ``--trace 1``
runs the command under ``tracer.py`` at ``--jobs 1`` and reports per-layer
metrics.  The last line of stdout is the result object; the line before it
is a detail object with every sample, every named metric, the machine and
the speed probe.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from tracer import TRACE_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"

# The workloads have no random input: --seed is recorded and selects nothing.
WORKLOADS = {
    "spectrum-km1": ["spectrum", "--k", "-1", "--h-max", "12", "--jobs", "1"],
    "verify-o120": ["verify", "--all", "--order", "120", "--jobs", "2"],
    "homology-k2": ["homology", "--k", "2", "--h-max", "16", "--jobs", "2"],
}

SETUP_REPS = 7          # fresh `afflap --version` runs per benchmark run
RUN_DEADLINE_S = 170.0  # whole benchmark run, including set-up and references
CHILD_TIMEOUT_S = 150.0
PROBE_LOOP = 2_000_000  # iterations of the fixed speed-probe loop, about 0.15 s


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    out: bytes
    err: bytes
    timed_out: bool


def child_env() -> dict:
    """The environment of every child: this checkout's sources, no AFFLAP_*
    overrides (AFFLAP_JOBS would replace --jobs), fixed hashing, one BLAS
    thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AFFLAP_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _drain(proc: subprocess.Popen, deadline: float) -> tuple[bytes, bytes, bool]:
    """Read stdout and stderr to EOF; kill the process group at the deadline."""
    chunks: dict = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0 and not timed_out:
                timed_out = True
                os.killpg(proc.pid, signal.SIGKILL)
            for key, _ in sel.select(max(remaining, 0.1) if not timed_out else 1.0):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]), timed_out


def run_child(argv: list[str], timeout: float) -> Sample:
    """Run one process to completion.  CPU time and peak RSS come from
    wait4, which covers the process and every descendant it reaped: CPU
    time is summed over the tree, ru_maxrss is the largest single process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err, timed_out = _drain(proc, start + timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)  # interrupted: stop the tree, then reap
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # strays left by a killed run
        except ProcessLookupError:
            pass
    return Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                  peak_rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode,
                  out=out, err=err, timed_out=timed_out)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "afflap", *args, "--format", "json"]


def with_jobs(args: list[str], jobs: int) -> list[str]:
    i = args.index("--jobs")
    return [*args[:i + 1], str(jobs), *args[i + 2:]]


def speed_probe() -> float:
    """Seconds for a fixed pure-Python loop: tracks the host's speed drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# correctness

def golden_diff(golden, actual, path: str = "$") -> str | None:
    """Where ``actual`` fails to carry ``golden``, or None.

    Every golden key must be present with an equal value, recursively; keys
    that only ``actual`` has (fields a later version adds on purpose) are
    ignored.  Lists must have the same length and match element by element.
    """
    if isinstance(golden, dict):
        if not isinstance(actual, dict):
            return f"{path}: expected an object"
        for key, value in golden.items():
            if key not in actual:
                return f"{path}.{key}: missing"
            found = golden_diff(value, actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(golden, list):
        if not isinstance(actual, list) or len(actual) != len(golden):
            return f"{path}: expected a list of {len(golden)}"
        for i, (g, a) in enumerate(zip(golden, actual)):
            found = golden_diff(g, a, f"{path}[{i}]")
            if found:
                return found
        return None
    if type(golden) is not type(actual) or golden != actual:
        return f"{path}: {actual!r} != golden {golden!r}"
    return None


def load_golden(workload: str) -> dict:
    with open(GOLDEN / f"{workload}.json") as handle:
        return json.load(handle)


def check(sample: Sample, golden: dict, reference: bytes | None) -> str | None:
    """The reason a repetition failed, or None."""
    if sample.timed_out:
        return "timeout"
    if sample.code != 0:
        return f"exit code {sample.code}: {sample.err.decode(errors='replace')[-300:]}"
    try:
        payload = json.loads(sample.out)
    except ValueError:
        return "stdout is not JSON"
    found = golden_diff(golden, payload)
    if found:
        return f"golden mismatch at {found}"
    if reference is not None and sample.out != reference:
        return "stdout differs from the --jobs 1 output"
    return None


# ---------------------------------------------------------------------------
# statistics

def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (None below eleven samples), and the sample count."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "p_hi": None, "p_hi_value": None}
    if n >= 11:
        p = 100 * (n - 10) // n
        out["p_hi"] = p
        out["p_hi_value"] = sorted(values)[max(0, -(-p * n // 100) - 1)]
    return out


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy_version, "platform": platform.platform()}


# ---------------------------------------------------------------------------
# runs

class Run:
    """One benchmark run: counts attempts and failures, honours the deadline."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed: set[int] = set()   # attempt numbers that failed
        self.failures: list[str] = []   # every reason, a run's own defects too

    def fail(self, reason: str, attempt: int | None = None) -> None:
        """Record a failure; with an attempt number it counts as a failed run."""
        self.failures.append(reason)
        if attempt is not None:
            self.failed.add(attempt)

    def timeout(self) -> float:
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return max(1.0, min(CHILD_TIMEOUT_S, left))

    def checked(self, argv: list[str], golden: dict, reference: bytes | None) -> Sample:
        sample = run_child(argv, self.timeout())
        self.attempted += 1
        reason = check(sample, golden, reference)
        if reason:
            self.fail(reason, self.attempted)
        return sample

    def repetitions(self, walls: list[float]):
        """Yield while another repetition, at the median length so far, fits
        in the measured window; always at least one."""
        window = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - window
            typical = statistics.median(walls) if walls else 0.0
            if walls and (elapsed + typical > self.seconds
                          or time.perf_counter() - self.started + typical > RUN_DEADLINE_S):
                return
            yield


def measure_end_to_end(run: Run, workload: str) -> tuple[dict, dict]:
    args = WORKLOADS[workload]
    golden = load_golden(workload)
    version = [sys.executable, "-m", "afflap", "--version"]
    run_child(version, run.timeout())  # warm-up: bytecode and page cache
    setup = []
    for _ in range(SETUP_REPS):
        sample = run_child(version, run.timeout())
        run.attempted += 1
        if sample.code != 0 or not sample.out.strip():
            run.fail(f"--version failed with exit code {sample.code}", run.attempted)
        setup.append(sample.wall_s)
    reference = None
    if with_jobs(args, 1) != args:
        reference = run.checked(cli_argv(with_jobs(args, 1)), golden, None).out
    reps: list[Sample] = []
    probes: list[float] = []
    walls: list[float] = []
    for _ in run.repetitions(walls):
        probes.append(speed_probe())
        sample = run.checked(cli_argv(args), golden, reference)
        reps.append(sample)
        walls.append(sample.wall_s)
    cpu = [s.cpu_s for s in reps]
    rss = [s.peak_rss_mb for s in reps]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "fail_rate": (len(run.failed) / run.attempted, "1"),
    }
    detail = {"samples": {"wall_s": walls, "cpu_s": cpu, "peak_rss_mb": rss,
                          "setup_s": setup, "probe_s": probes},
              "summary": {"wall_s": summary(walls), "cpu_s": summary(cpu),
                          "peak_rss_mb": summary(rss), "setup_s": summary(setup),
                          "probe_s": summary(probes)}}
    return metrics, detail


def layer_metrics(report: dict, out_bytes: int) -> dict:
    """Per-layer metrics from one traced run (see README.md for the table)."""
    spans, counts = report["spans"], report["counts"]

    def self_s(name):
        return spans[name]["self_s"], "s"

    def incl_s(name):
        return spans[name]["incl_s"], "s"

    def calls(name):
        return spans[name]["calls"], "count"

    def count(name):
        return counts.get(name, 0), "count"

    m = {
        "chains.matrix_of.s": self_s("chains.matrix_of"),
        "chains.matrix_of.calls": calls("chains.matrix_of"),
        "chains.matrix_of.columns": count("chains.matrix_of.columns"),
        "chains.matrix_of.nnz": count("chains.matrix_of.nnz"),
        "chains.normalize_wedge.calls": count("chains.normalize_wedge.calls"),
        "chains.enumerate_block.s": self_s("chains.enumerate_block"),
        "chains.enumerate_block.monomials": count("chains.enumerate_block.monomials"),
        "chains.block_dim_table.s": self_s("chains.block_dim_table"),
        "chains.block_dim_table.builds": count("chains.block_dim_table.builds"),
        "laplacian.laplacian_by_definition.s": incl_s("laplacian.laplacian_by_definition"),
        "laplacian.laplacian_closed_form.s": incl_s("laplacian.laplacian_closed_form"),
        "laplacian.spectrum.self_s": self_s("laplacian.spectrum"),
        "laplacian.homology_table.self_s": self_s("laplacian.homology_table"),
        "laplacian.spectrum.exact_slices": count("laplacian.spectrum.exact_slices"),
        "laplacian.spectrum.modular_slices": count("laplacian.spectrum.modular_slices"),
        "laplacian.spectrum.residual_checked": count("laplacian.spectrum.residual_checked"),
        "laplacian.gamma.nnz": count("laplacian.gamma.nnz"),
        "laplacian.block.dim_max": count("laplacian.block.dim_max"),
        "linalg.modular.fallbacks": count("linalg.modular.fallbacks"),
        "linalg.certify_full_rank.calls": calls("linalg.certify_full_rank"),
        "linalg.certify_full_rank.proved": count("linalg.certify_full_rank.proved"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.out_bytes": (out_bytes, "bytes"),
        "cli.tasks.sum_s": incl_s("cli.tasks"),
        "cli.tasks.max_s": (spans["cli.tasks"]["max_s"], "s"),
    }
    for name in ("linalg.IntMatrix.mul", "linalg.bareiss_rank", "linalg.rank_mod_p",
                 "linalg.fraction_kernel", "sl2.RepRingElement.mul", "sl2.HalfLaurent.mul"):
        m[f"{name}.s"] = self_s(name)
        m[f"{name}.calls"] = calls(name)
    for name in ("sl2.singular_block_dims", "sl2.singular_multiplicities",
                 "series.product_over", "series.Series.mul", "series.Series.inverse"):
        m[f"{name}.s"] = self_s(name)
    for name in sorted(n for n in spans if n.startswith("identities.")):
        m[f"{name}.s"] = incl_s(name)  # the whole cost of one identity
    return m


def parse_trace(err: bytes) -> dict | None:
    lines = err.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith(TRACE_MARKER):
        return None
    return json.loads(lines[-1][len(TRACE_MARKER):])


def measure_layers(run: Run, workload: str) -> tuple[dict, dict]:
    """A traced run at --jobs 1 beside an untraced one of the same command."""
    args = with_jobs(WORKLOADS[workload], 1)
    golden = load_golden(workload)
    untraced = run.checked(cli_argv(args), golden, None)
    traced_argv = [sys.executable, str(HERE / "tracer.py"), *args, "--format", "json"]
    reps: list[dict] = []
    walls: list[float] = []
    first_counts = None
    for _ in run.repetitions(walls):
        sample = run.checked(traced_argv, golden, untraced.out)
        walls.append(sample.wall_s)
        report = parse_trace(sample.err)
        if report is None:
            run.fail("traced run wrote no trace", run.attempted)
            continue
        m = layer_metrics(report, len(sample.out))
        covered = sum(s["self_s"] for s in report["spans"].values())
        m["trace.wall_s"] = (sample.wall_s, "s")
        m["trace.overhead_s"] = (sample.wall_s - untraced.wall_s, "s")
        m["trace.unattributed_s"] = (sample.wall_s - covered, "s")
        counts = {k: v for k, v in m.items() if v[1] != "s"}
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            run.fail("exact counts differ between traced runs", run.attempted)
        reps.append(m)
    if not reps:
        return {}, {"traced_wall_s": walls}
    # times are medians over the traced repetitions; counts are equal in all
    # of them (checked above), so they stay exact integers
    metrics = {name: (statistics.median(r[name][0] for r in reps) if unit == "s" else value,
                      unit)
               for name, (value, unit) in reps[0].items()}
    return metrics, {"untraced_wall_s": untraced.wall_s, "traced_wall_s": walls}


# ---------------------------------------------------------------------------
# entry points

def declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "afflap" / "cli.py").is_file():
        print(f"error: no afflap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(seconds)
    measure = measure_layers if trace else measure_end_to_end
    metrics, detail = measure(run, workload)
    # the result carries the metrics BENCHMARK.json declares; the detail
    # line carries every named metric
    result_metrics = {}
    for name in declared_metrics(trace):
        if name not in metrics:
            run.fail(f"metric {name} was not measured")
            continue
        value, unit = metrics[name]
        result_metrics[name] = {"value": value, "unit": unit}
    detail.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  command=WORKLOADS[workload], machine=machine(),
                  failures=run.failures,
                  metrics={n: {"value": v, "unit": u} for n, (v, u) in sorted(metrics.items())})
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failed), "metrics": result_metrics}))
    return 0


def write_golden() -> int:
    """Capture each workload's output from this tree as its golden file."""
    GOLDEN.mkdir(exist_ok=True)
    for workload, args in WORKLOADS.items():
        sample = run_child(cli_argv(args), CHILD_TIMEOUT_S)
        if sample.code != 0:
            print(f"error: {workload} exited with {sample.code}", file=sys.stderr)
            return 1
        payload = json.loads(sample.out)
        payload.pop("tool_version")  # a version bump is not a result change
        with open(GOLDEN / f"{workload}.json", "w") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="capture the golden outputs from this tree and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        return write_golden()
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
