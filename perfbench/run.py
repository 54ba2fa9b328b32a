"""Benchmark of the defectcost command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

The workload's inputs are built with the CLI (``synth`` and, for ``report``,
the record-producing commands) at least three times over, to time set-up. Then the
workload's CLI commands run in child processes, one after another, until S
seconds have passed; every run's outputs are checked. With ``--trace 1`` each
untraced run is followed by a run under ``traced_cli.py``, which records spans
around the package's layers; the two must write identical outputs.

Informational lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. ``--smoke`` shrinks every workload so that a run takes seconds.

Times are scaled by the machine-speed factor of ``calibrate.py``, measured
between operations on the same CPU; the raw wall times are on the info line.
The children get ``PYTHONPATH=src`` of the checkout and one BLAS thread.
Everything the benchmark writes goes to ``.perfbench_work/`` in the checkout,
which it removes before it exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

from calibrate import REFERENCE_S, kernel_seconds
from spans import LAYER_METRICS, layer_metrics, self_shares, summarize
from workloads import WORKLOADS, CheckError

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # at least this many set-ups, and more until SETUP_MIN_S have passed
SETUP_MIN_S = 3.0
COMMAND_TIMEOUT_S = 150
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CLI = "import sys; from defectcost.cli import main; sys.exit(main())"

END_TO_END = {
    "command_s": "s",
    "records_per_s": "records/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}


class SetupError(Exception):
    pass


@dataclass
class Op:
    traced: bool
    seconds: float
    rss_mb: float
    records: int = 0
    digest: str = ""
    error: str = ""
    summary: dict | None = None


def run_child(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run one process to its end: wall seconds, exit code, peak resident MB."""
    with log.open("ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh, stderr=fh, env=env)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024.0


def digest(files: list[Path]) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Runner:
    def __init__(self, root: Path, work: Path):
        self.work = work
        self.log = work / "commands.log"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.update({var: BLAS_THREADS for var in BLAS_VARS})
        self.missing_wraps: list[str] = []

    def run_commands(self, commands: list[list[str]], traced: bool, tag: str):
        """Run CLI commands in order until one fails: (seconds, exit ok, peak MB, spans)."""
        seconds, rss, spans = 0.0, 0.0, []
        for i, args in enumerate(commands):
            spans_path = self.work / f"{tag}-{i}.spans.json"
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
            else:
                argv = [sys.executable, "-c", CLI, *args]
            took, code, peak = run_child(argv, self.env, self.log)
            seconds += took
            rss = max(rss, peak)
            if code != 0:
                return seconds, False, rss, spans
            if traced:
                dumped = json.loads(spans_path.read_text())
                spans_path.unlink()
                self.missing_wraps = dumped["missing"]
                offset = len(spans)
                spans += [[n, s, e, p + offset if p >= 0 else p, c] for n, s, e, p, c in dumped["spans"]]
        return seconds, True, rss, spans

    def setup(self, workload, traced: bool) -> tuple[Path, list[float], list[float]]:
        inputs = self.work / "inputs"
        times, synth = [], []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
            shutil.rmtree(inputs, ignore_errors=True)
            seconds, ok, _, spans = self.run_commands(workload.setup(inputs), traced, f"setup{len(times)}")
            if not ok:
                raise SetupError(f"a set-up command failed, see {self.log}")
            times.append(seconds)
            synth.append(summarize(spans)["total"]["synth.generate"] if traced else 0.0)
        try:
            workload.check_inputs(inputs)
        except CheckError as exc:
            raise SetupError(f"set-up outputs are wrong: {exc}") from exc
        return inputs, times, synth

    def op(self, workload, inputs: Path, traced: bool, index: int) -> Op:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        seconds, ok, rss, spans = self.run_commands(workload.op(inputs, out), traced, f"op{index}")
        op = Op(traced=traced, seconds=seconds, rss_mb=rss)
        if not ok:
            op.error = f"a command exited with an error, see {self.log}"
            return op
        try:
            op.records, files = workload.check(inputs, out)
            op.digest = digest(files)
        except (CheckError, KeyError, TypeError) as exc:
            op.error = f"output check failed: {exc!r}"
        if traced:
            op.summary = summarize(spans)
        return op


def end_to_end(ops: list[Op], setup_times: list[float], scale: float) -> dict[str, float]:
    """Times are wall times multiplied by ``scale``, the machine-speed factor of calibrate.py."""
    values = {
        "command_s": statistics.median(op.seconds for op in ops) * scale,
        "records_per_s": statistics.median(op.records / (op.seconds * scale) for op in ops),
        "setup_s": statistics.median(setup_times) * scale,
        "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        "ok_share": sum(not op.error for op in ops) / len(ops),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(ops: list[Op], synth_times: list[float]) -> dict[str, dict]:
    traced = [op for op in ops if op.traced and op.summary is not None]
    plain = [op.seconds for op in ops if not op.traced]
    values = layer_metrics([op.summary for op in traced]) if traced else {}
    values["synth.s"] = statistics.median(synth_times)
    values["trace.overhead_share"] = (
        statistics.median(op.seconds for op in traced) / statistics.median(plain) - 1.0 if traced else 0.0
    )
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, (unit, _, _) in LAYER_METRICS.items()}


def environment(root: Path) -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a check in seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "defectcost" / "cli.py").is_file():
        print(f"error: {src / 'defectcost'} not found; run from the root of a defectcost checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    # the calibration kernel runs in this process: keep it and the children on one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(root, work)
    trace = bool(args.trace)
    kernel = [kernel_seconds()]
    try:
        inputs, setup_times, synth_times = runner.setup(workload, trace)
        ops: list[Op] = []
        deadline = time.perf_counter() + args.seconds
        while not ops or time.perf_counter() < deadline:
            kernel.append(kernel_seconds())
            for traced in (False, True) if trace else (False,):
                ops.append(runner.op(workload, inputs, traced, len(ops)))
        kernel.append(kernel_seconds())
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(runner.log.read_text()[-4000:], file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    reference = next((op.digest for op in ops if not op.error), "")
    for op in ops:
        if not op.error and op.digest != reference:
            op.error = "outputs differ from those of the first run"
        if op.error:
            print(f"run failed ({'traced' if op.traced else 'untraced'}): {op.error}", file=sys.stderr)
    failed = sum(bool(op.error) for op in ops)
    scale = REFERENCE_S / statistics.median(kernel)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "records_sha256": reference,
        **environment(root),
        "kernel_s_runs": kernel,
        "scale": scale,
        "setup_s_runs": setup_times,
        "command_s_runs": [op.seconds for op in ops if not op.traced],
    }
    if trace:
        first = next((op for op in ops if op.traced and op.summary is not None), None)
        info["traced_command_s_runs"] = [op.seconds for op in ops if op.traced]
        info["layer_self_share"] = self_shares(first.summary, first.seconds) if first else {}
        info["missing_wraps"] = runner.missing_wraps
    print("info " + json.dumps(info))
    metrics = per_layer(ops, synth_times) if trace else end_to_end(ops, setup_times, scale)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
