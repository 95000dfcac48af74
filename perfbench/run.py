"""fedsim benchmark: end-to-end CLI runs and a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in perfbench/workloads.py, or ``all`` to run
each in turn. With ``--trace 0`` the workload's CLI command runs as a fresh
process (``PYTHONPATH=src``, BLAS pinned to one thread), one after another,
until S seconds have passed; every repeat's outputs are checked and compared
byte for byte with the first repeat. With ``--trace 1`` each repeat is a pair:
the same untraced process, then the same command in this process through
``fedsim.cli.main`` with spans around every traced function, whose outputs
must equal the untraced ones byte for byte.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details (environment,
per-repeat values, output sha256). See perfbench/METRICS.md for definitions.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported here (traced runs) or in a child process.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from tracer import PER_CALLER, TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCH = os.path.join(ROOT, "perfbench", "launch.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "client_steps_per_s": "1/s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok": "share",
}

DERIVED = {
    "engine.control_updates_per_participant": "ratio",
    "metrics.risk_useful_share": "ratio",
    "sweep.parallel_efficiency": "ratio",
    "trace_overhead": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for home, funcs in TRACED.items():
        for fname in funcs:
            units[f"{home}.{fname}.calls"] = "count"
            units[f"{home}.{fname}.self_s"] = "s"
    for func, callers in PER_CALLER.items():
        for caller in callers:
            units[f"{func}.by_{caller}.calls"] = "count"
            units[f"{func}.by_{caller}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _child_env(workers: int) -> dict[str, str]:
    env = dict(os.environ)  # carries BLAS_PIN
    # Let the untimed first repeat write the bytecode cache that users of an
    # installed package have; recompiling fedsim costs ~0.15 s per process.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["FEDSIM_WORKERS"] = str(workers)
    return env


class Job:
    """One workload at one seed: its config file and the checks on its outputs."""

    def __init__(self, name: str, seed: int, scratch: str):
        self.workload = WORKLOADS[name]
        self.scratch = scratch
        self.config = self.workload.make_config(seed)
        self.config_path = os.path.join(scratch, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config, fh, indent=2, sort_keys=True)
        self.reference: dict[str, str] | None = None
        self.repeats = 0

    def out_dir(self) -> str:
        self.repeats += 1
        return os.path.join(self.scratch, f"out{self.repeats}")

    def verify(self, code: int, out_dir: str, stdout: str) -> tuple[list[str], dict[str, str]]:
        """Problems with one command's outputs, and the sha256 of each output file."""
        if code != 0:
            return [f"exit code {code}"], {}
        missing = [f for f in self.workload.outputs if not os.path.exists(os.path.join(out_dir, f))]
        if missing:
            return [f"missing outputs {missing}"], {}
        hashes = {f: _sha256(os.path.join(out_dir, f)) for f in self.workload.outputs}
        try:
            problems = self.workload.check(self.config, out_dir, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable outputs: {exc!r}"]
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            problems.append("output bytes differ from the first repeat")
        return problems, hashes

    def run_untraced(self) -> dict:
        out_dir = self.out_dir()
        marks_path = out_dir + ".marks.json"
        stdout_path = out_dir + ".stdout"
        argv = [sys.executable, LAUNCH, marks_path, *self.workload.argv(self.config_path, out_dir)]
        with open(stdout_path, "wb") as out, open(out_dir + ".stderr", "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=_child_env(self.workload.workers), stdout=out, stderr=err,
                start_new_session=True,
            )
            try:
                # wait4 reports the peak RSS of the child and every child it
                # reaped (the sweep's pool workers), i.e. of the largest process.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)  # the command and its pool workers
                proc.wait()
                raise
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(stdout_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        problems, hashes = self.verify(proc.returncode, out_dir, stdout)
        sample = {"wall_s": end - start, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        try:
            with open(marks_path, encoding="utf-8") as fh:
                marks = json.load(fh)
            sample["setup_s"] = marks["first_call"] - start
            sample["main_s"] = marks["main_end"] - marks["main"]
        except (OSError, KeyError, ValueError):
            problems.append("the launcher recorded no set-up mark")
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"sample": sample, "problems": problems, "hashes": hashes}

    def run_traced(self, tracer: Tracer) -> dict:
        from fedsim import cli

        out_dir = self.out_dir()
        argv = self.workload.argv(self.config_path, out_dir)
        saved_workers = os.environ.get("FEDSIM_WORKERS")
        os.environ["FEDSIM_WORKERS"] = "1"  # spans cannot follow calls into pool workers
        tracer.clear()
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - start
        finally:
            if saved_workers is None:
                del os.environ["FEDSIM_WORKERS"]
            else:
                os.environ["FEDSIM_WORKERS"] = saved_workers
        problems, hashes = self.verify(code, out_dir, stdout.getvalue())
        summary = tracer.summarize()
        tracer.clear()
        shutil.rmtree(out_dir, ignore_errors=True)
        return {"traced_s": elapsed, "summary": summary, "problems": problems, "hashes": hashes}


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return list(values) * 3 if values else []
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def end_to_end_metrics(
    job: Job, samples: list[dict], attempted: int, failed: int
) -> tuple[dict, dict]:
    cfg = job.config
    per_repeat: dict[str, list[float]] = {k: [] for k in END_TO_END if k != "ops_ok"}
    for s in samples:
        busy = s["wall_s"] - s["setup_s"]
        per_repeat["wall_s"].append(s["wall_s"])
        per_repeat["setup_s"].append(s["setup_s"])
        per_repeat["client_steps_per_s"].append(job.workload.client_steps(cfg) / busy)
        per_repeat["trials_per_s"].append(job.workload.trials(cfg) / busy)
        per_repeat["peak_rss_mb"].append(s["peak_rss_mb"])
    values = {k: _median(v) for k, v in per_repeat.items()}
    values["ops_ok"] = (attempted - failed) / attempted
    return values, per_repeat


def per_layer_metrics(job: Job, pairs: list[dict]) -> dict:
    units = per_layer_units()
    collected: dict[str, list[float]] = {k: [] for k in units}
    workers = job.workload.workers
    for pair in pairs:
        by_name = pair["traced"]["summary"]["by_name"]
        funcs: dict[str, list] = {}
        callers: dict[str, list] = {}
        point_s = 0.0
        for (func, caller), (calls, total_s, self_s) in by_name.items():
            acc = funcs.setdefault(func, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            callers[f"{func}.by_{caller}"] = [calls, self_s]
            if func == "cli._sweep_point":
                point_s += total_s
        for key in list(collected):
            stem, _, field = key.rpartition(".")
            acc = funcs.get(stem) or callers.get(stem)
            if field in ("calls", "self_s"):
                collected[key].append(0 if acc is None else acc[0 if field == "calls" else 1])
        control = funcs.get("engine.scaffold_control_update", [0])[0]
        participants = pair["traced"]["summary"]["participants"]
        collected["engine.control_updates_per_participant"].append(
            control / participants if participants else 0.0
        )
        risk_all = funcs.get("metrics.empirical_risk", [0])[0]
        risk_final = callers.get("metrics.empirical_risk.by_cli", [0])[0]
        collected["metrics.risk_useful_share"].append(risk_final / risk_all if risk_all else 0.0)
        untraced = pair["untraced"]["sample"]
        busy = untraced["wall_s"] - untraced["setup_s"]
        collected["sweep.parallel_efficiency"].append(point_s / (workers * busy))
    untraced_main = _median([p["untraced"]["sample"]["main_s"] for p in pairs])
    traced_main = _median([p["traced"]["traced_s"] for p in pairs])
    values = {}
    for key, vals in collected.items():
        # call counts are exact and repeat; times are medians over the pairs
        values[key] = vals[0] if units[key] == "count" else _median(vals)
    values["trace_overhead"] = traced_main / untraced_main - 1.0
    return values


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "git_commit": commit,
        "workload_seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        job = Job(name, seed, scratch)
        tracer = None
        if trace:
            if SRC not in sys.path:
                sys.path.insert(0, SRC)
            tracer = Tracer()
            tracer.install()
        attempted = failed = 0
        records, failures = [], []
        deadline = time.monotonic() + seconds
        repeat_s = 0.0
        try:
            # Start a repeat only if it should end by the deadline, so a run
            # lasts about --seconds whatever the length of one command.
            while not records or time.monotonic() + repeat_s <= deadline:
                started = time.monotonic()
                record = {"untraced": job.run_untraced()}
                steps = [record["untraced"]]
                if trace:
                    traced = job.run_traced(tracer)
                    if traced["hashes"] and traced["hashes"] != record["untraced"]["hashes"]:
                        traced["problems"].append("traced outputs differ from untraced outputs")
                    record["traced"] = traced
                    steps.append(traced)
                for step in steps:
                    attempted += 1
                    if step["problems"]:
                        failed += 1
                        failures.append(step["problems"])
                records.append(record)
                repeat_s = time.monotonic() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        # The first repeat is checked but not timed: in a fresh checkout it
        # also compiles the bytecode, and it pages in code and data that later
        # processes find cached.
        timed = [r for r in records[1:] or records if "setup_s" in r["untraced"]["sample"]]
        samples = [r["untraced"]["sample"] for r in timed]
        if trace:
            metrics = per_layer_metrics(job, timed) if timed else {}
            units = per_layer_units()
            per_repeat = {}
        else:
            metrics, per_repeat = end_to_end_metrics(job, samples, attempted, failed)
            units = END_TO_END
        detail = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "environment": environment(seed),
            "samples": len(samples),
            "per_repeat": per_repeat,
            "quartiles": {k: _quartiles(v) for k, v in per_repeat.items()},
            "ops_failed": failed / attempted,
            "failures": failures,
            "sha256": job.reference or {},
        }
        return {
            "detail": detail,
            "result": {
                "correct": failed == 0 and bool(timed),
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
            },
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so the running command is killed and reaped


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fedsim", "cli.py")):
        print(f"perfbench: no fedsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    for n, res in results.items():
        print(json.dumps({"perfbench_detail": res["detail"]}, sort_keys=True))
    if len(names) == 1:
        final = results[names[0]]["result"]
    else:
        for n, res in results.items():
            for metric, m in res["result"]["metrics"].items():
                print(f"{n:24s} {metric:48s} {m['value']:.6g} {m['unit']}")
        final = {
            "correct": all(r["result"]["correct"] for r in results.values()),
            "attempted": sum(r["result"]["attempted"] for r in results.values()),
            "failed": sum(r["result"]["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{metric}": m
                for n, r in results.items()
                for metric, m in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
