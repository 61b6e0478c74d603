"""distillab benchmark: run one workload's CLI command end to end.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition writes a config generated from ``--seed`` (see
``workloads.py``) and runs ``bench/child.py`` on it in a fresh process:
``workers=1``, one BLAS thread.  Repetitions continue until
``--seconds`` have passed (at least three), and every output is checked
by ``check.py``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the fail ratio, and the full record of every
repetition is written under ``.bench_work/results/``.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions: ``wall_s`` (spawn to exit), ``setup_s`` (spawn until the child
has imported numpy and distillab and is about to call ``cli.main``), and
``peak_rss_mb`` (the child's own peak RSS from ``os.wait4``).

``--trace 1`` runs each config twice, traced and untraced, in alternating
order.  It checks that the two output directories are byte-identical, that
the wrappers reached every imported name, and that the traced call counts
equal the workload's known ones; then it reports the per-layer metrics of
:data:`PER_LAYER` (medians over the pairs).  A function's ``s`` is its
inclusive time in seconds; a layer the workload bypasses reads 0.

An operation is a sweep point or, for ``trajectory``, a command run; it
fails when the command exits non-zero, reports ``converged=false``, or
fails the check.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
CHECKER = os.path.join(BENCH, "check.py")

MIN_REPS = 3
# stop starting repetitions past this, so a run ends well inside 180 s
RUN_BUDGET_S = 140.0

UNITS = {"calls": "count", "bytes": "B", "s": "s", "failed": "count",
         "iterations": "count", "unconverged": "count"}

PER_LAYER = [
    ("gram_models.analytic_eigensystem", ("calls", "bytes", "s")),
    ("gram_models.build_gram", ("calls", "bytes", "s")),
    ("gram_models.numeric_eigensystem", ("calls", "s")),
    ("distillation.averaging_operator", ("calls", "bytes", "s")),
    ("distillation.trajectory", ("calls", "s")),
    ("distillation.pll_refine", ("calls", "s")),
    ("distillation.argmax_accuracy", ("calls", "s")),
    ("distillation.to_csv", ("calls", "bytes", "s")),
    ("oracle.solve_round", ("calls", "iterations", "unconverged", "s")),
    ("oracle.objective_and_gradient", ("calls", "s")),
    ("oracle.measure_approx_error", ("calls", "s")),
    ("noise_theory.realize_labels", ("calls", "failed", "s")),
    ("noise_theory.theory_constants", ("calls", "s")),
    ("noise_theory.predicted_population_accuracy", ("calls", "s")),
    ("config.from_json", ("calls", "s")),
]
TIMES = ("cli.main.s", "cli.command.self_s", "trace.overhead_s")


def per_layer_units() -> dict[str, str]:
    units = {f"{fn}.{stat}": UNITS[stat] for fn, stats in PER_LAYER for stat in stats}
    units["oracle.evals_per_iteration"] = "ratio"
    units.update({name: "s" for name in TIMES})
    return units


def layer_metrics(summary: dict, overhead_s: float) -> dict[str, float]:
    out = {f"{fn}.{stat}": summary.get(fn, {}).get(stat, 0)
           for fn, stats in PER_LAYER for stat in stats}
    iterations = summary.get("oracle.solve_round", {}).get("iterations", 0)
    evals = summary.get("oracle.objective_and_gradient", {}).get("calls", 0)
    out["oracle.evals_per_iteration"] = evals / iterations if iterations else 0.0
    out["cli.main.s"] = summary["cli.main"]["s"]
    out["cli.command.self_s"] = sum(v["self_s"] for k, v in summary.items()
                                    if k.startswith("cli.cmd_"))
    out["trace.overhead_s"] = overhead_s
    return out


def child_env() -> dict:
    # One BLAS thread: on a shared 2-core host, two threads made the run
    # medians of traj_structured vary twice as much (CV 12% against 5%).
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def spawn(work: str, args: list[str], env: dict) -> dict:
    """Run one child; time it from spawn to exit and read its own rusage.

    The child's peak RSS also counts the pages of this process at the time
    of the spawn, so this process imports no numpy and stays small.
    """
    ready = os.path.join(work, "ready")
    log = os.path.join(work, "stderr.txt")
    if os.path.exists(ready):
        os.remove(ready)
    with open(log, "w") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, CHILD, ready, *args], env=env,
                                stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup_s = None
    if os.path.exists(ready):
        with open(ready) as fh:
            setup_s = (int(fh.read()) - start) / 1e9
    with open(log) as fh:
        stderr = fh.read()[-2000:]
    return {"code": proc.returncode, "wall_s": (end - start) / 1e9, "setup_s": setup_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr}


def run_check(workload: str, config: str, out: str, env: dict) -> dict:
    """Verdict of one ``check.py`` process on one output directory."""
    proc = subprocess.run([sys.executable, CHECKER, workload, config, out], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return {"failed": None, "problems": [f"check.py exit code {proc.returncode}: "
                                             f"{proc.stderr[-2000:]}"]}
    return json.loads(proc.stdout.splitlines()[-1])


def same_tree(a: str, b: str) -> list[str]:
    """Names that differ between two flat output directories."""
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if names_a != names_b:
        return sorted(set(names_a) ^ set(names_b))
    _, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return mismatch + errors


def call_count_problems(workload, summary: dict) -> list[str]:
    return [f"{fn}: {summary.get(fn, {}).get('calls', 0)} calls, expected {want}"
            for fn, want in workload.expected_calls.items()
            if summary.get(fn, {}).get("calls", 0) != want]


def commit() -> str | None:
    """The checked-out commit, when the benchmark's tree is a git work tree."""
    # the ceiling keeps git from searching the directories above the tree
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Run:
    def __init__(self, workload, seed: int, seconds: float, work: str):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work = work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def prepare(self, rep: int) -> tuple[str, list[str]]:
        cfg = os.path.join(self.work, f"config_{rep:03d}.json")
        with open(cfg, "w") as fh:
            json.dump(self.workload.make_config(self.seed, rep), fh, indent=1)
        return cfg, [self.workload.command, "--config", cfg]

    def account(self, rep: int, result: dict, cfg: str, out: str, extra: list[str]) -> None:
        """Count the rep's operations and the failed ones."""
        ops = self.workload.operations()
        if result["code"] != 0:
            failed, problems = ops, [f"exit code {result['code']}: {result['stderr']}"]
        else:
            verdict = run_check(self.workload.name, cfg, out, self.env)
            failed, problems = verdict["failed"], verdict["problems"]
            if failed is None:
                failed = ops
        if extra:
            failed, problems = ops, problems + extra
        self.attempted += ops
        self.failed += failed
        self.problems += [f"rep {rep}: {p}" for p in problems]

    def repetitions(self):
        """Yield rep indices for --seconds (at least MIN_REPS).

        A rep is started only if it is expected to end less than half a rep
        past the deadline, so runs last --seconds on average.
        """
        start = time.monotonic()
        last = 0.0
        rep = 0
        while True:
            elapsed = time.monotonic() - start
            if rep >= MIN_REPS and elapsed + last / 2 >= self.seconds:
                return
            if rep > 0 and elapsed + last > RUN_BUDGET_S:
                return
            yield rep
            last = time.monotonic() - start - elapsed
            rep += 1

    def untraced(self) -> tuple[dict, list]:
        reps = []
        for rep in self.repetitions():
            cfg, args = self.prepare(rep)
            out = os.path.join(self.work, f"out_{rep:03d}")
            result = spawn(self.work, args + ["--out", out], self.env)
            self.account(rep, result, cfg, out, [])
            shutil.rmtree(out, ignore_errors=True)
            reps.append(result)
        setup = [r["setup_s"] for r in reps if r["setup_s"] is not None]
        if not setup:
            return {}, reps
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, reps

    def traced(self) -> tuple[dict, list]:
        pairs = []
        for rep in self.repetitions():
            cfg, args = self.prepare(rep)
            outs = {False: os.path.join(self.work, f"out_{rep:03d}"),
                    True: os.path.join(self.work, f"out_{rep:03d}_traced")}
            trace_file = os.path.join(self.work, f"trace_{rep:03d}.json")
            results = {}
            for traced in ((False, True) if rep % 2 == 0 else (True, False)):
                extra = ["--trace", trace_file] if traced else []
                results[traced] = spawn(self.work, extra + ["--"] + args + ["--out", outs[traced]],
                                        self.env)
            problems = []
            summary = None
            if results[True]["code"] != results[False]["code"]:
                problems.append("traced and untraced exit codes differ")
            elif results[True]["code"] == 0:
                with open(trace_file) as fh:
                    trace = json.load(fh)
                summary = trace["functions"]
                problems += [f"untraced reference {r}" for r in trace["untraced_references"]]
                problems += [f"traced output differs: {n}"
                             for n in same_tree(outs[False], outs[True])]
                problems += call_count_problems(self.workload, summary)
            self.account(rep, results[False], cfg, outs[False], problems)
            for out in outs.values():
                shutil.rmtree(out, ignore_errors=True)
            pairs.append({"untraced": results[False], "traced": results[True],
                          "functions": summary})
        layers = [layer_metrics(p["functions"],
                                p["traced"]["wall_s"] - p["untraced"]["wall_s"])
                  for p in pairs if p["functions"] is not None]
        units = per_layer_units()
        if not layers:
            return {}, pairs
        return {name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
                for name, unit in units.items()}, pairs


def environment() -> dict:
    """Versions, the BLAS threads the children use (read by a child), the host."""
    proc = subprocess.run([sys.executable, CHECKER, "--environment"], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return {
        "python": platform.python_version(),
        **json.loads(proc.stdout.splitlines()[-1]),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "platform": platform.platform(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "distillab", "cli.py")):
        print(f"error: no distillab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = os.path.join(ROOT, ".bench_work", "results")
    work = os.path.join(ROOT, ".bench_work", f"{label}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    try:
        run = Run(WORKLOADS[args.workload], args.seed, args.seconds, work)
        metrics, reps = run.traced() if args.trace else run.untraced()
        env = environment()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = run.failed == 0 and bool(metrics)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "fail_ratio": run.failed / run.attempted,
              "problems": run.problems[:50], "repetitions": reps, "metrics": metrics}
    with open(os.path.join(results_dir, f"{label}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in run.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env, "repetitions": len(reps),
                      "fail_ratio": {"value": record["fail_ratio"], "unit": "ratio"}}))
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
