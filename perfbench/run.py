"""symdef benchmark: cold dimension runs, cold deformation CLI jobs and a
warm certification sweep, measured from outside the program.

    python3 perfbench/run.py --workload dim-cold --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60

Run from the root of a symdef checkout.  The load is closed-loop with one
client: one job at a time, in at most one child process.  A run repeats
passes over the workload's seeded job list until ``--seconds`` is used up
(always at least one pass), checks every answer, prints a readable report
and, as its last line, one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics of a traced run (``--trace 1``).
See NOTES.md next to this file for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs as joblib
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

JOB_TIMEOUT_S = 60.0    # a hung job counts as failed after this long
HARD_MARGIN_S = 100.0   # no job runs past --seconds plus this margin
SETUP_PROBES_PER_PASS = 2
TAIL_MIN_JOBS = 40      # below this the tail percentile would be under p75
SETUP_CODE = "import symdef.cli; symdef.cli.calibrate_convention()"
DIM_CHILDREN = {"cohomology.act_monomial", "kernel.matrix_rank", "cohomology.d2"}


class Run:
    """Child processes, timing and failures of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.spans = workdir / "spans.json"  # where a traced child writes its spans
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.hard_deadline = self.deadline + HARD_MARGIN_S
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, argv: list[str], stdin: str | None = None):
        """(exit code or None on timeout, stdout, stderr, seconds)."""
        timeout = min(JOB_TIMEOUT_S, self.hard_deadline - time.perf_counter())
        if timeout <= 0:
            return None, "", "not started: run deadline passed", 0.0
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                                  text=True, cwd=self.workdir, env=self.env, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, "", f"timed out after {timeout:.0f} s", time.perf_counter() - t0
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0

    def fail(self, what: str, jobs: int = 1) -> None:
        """Record a problem; `jobs` is how many jobs it fails (0 for a check
        on the run as a whole, which still makes the run incorrect)."""
        self.failed += jobs
        self.problems.append(what)

    def setup_probe(self) -> float:
        code, _, err, seconds = self.spawn(["-c", SETUP_CODE])
        if code != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()[-500:]}")
        return seconds


# ---------------------------------------------------------------------------
# One pass over a job list
# ---------------------------------------------------------------------------


def cold_pass(run: Run, job_list: list[dict], traced: bool) -> dict:
    out = {"wall": 0.0, "times": [], "strata": [], "stdouts": [], "summary": {}, "shares": []}
    for job in job_list:
        for name, content in job.get("files", {}).items():
            (run.workdir / name).write_text(content, encoding="utf-8")
        if traced:
            run.spans.unlink(missing_ok=True)
            argv = [str(HERE / "traced_cli.py"), str(run.spans), *job["argv"]]
        else:
            argv = ["-m", "symdef.cli", *job["argv"]]
        code, stdout, stderr, seconds = run.spawn(argv)
        run.attempted += 1
        out["wall"] += seconds
        out["times"].append(seconds)
        out["strata"].append(job["stratum"])
        out["stdouts"].append(stdout)
        label = f"{job['stratum']} {' '.join(job['argv'])}"
        problem = (stderr.strip()[-300:] or "no exit code") if code is None else \
            joblib.check_cli(job, code, stdout)
        if problem:
            run.fail(f"{label}: {problem}")
        if traced and run.spans.exists():
            trace = tracing.load(run.spans)
            summary = tracing.summarize(trace)
            tracing.merge(out["summary"], summary)
            dim = summary.get("cohomology.cohomology_dim")
            if dim:
                # with its self time, these children account for the whole span
                children = tracing.direct_children(trace, "cohomology.cohomology_dim")
                unexpected = set(children) - DIM_CHILDREN
                if unexpected:
                    run.fail(f"{label}: unexpected spans under cohomology_dim: {sorted(unexpected)}",
                             jobs=0)
                share = {name: t / dim["s"] for name, t in children.items()}
                share["self"] = dim["self_s"] / dim["s"]
                out["shares"].append((job["stratum"], share))
    return out


def certify_pass(run: Run, job: dict, traced: bool) -> dict:
    argv = [str(HERE / "certify.py")] + ([str(run.spans)] if traced else [])
    run.spans.unlink(missing_ok=True)
    code, stdout, stderr, seconds = run.spawn(argv, stdin=json.dumps(job))
    points = job["points"]
    run.attempted += len(points)
    out = {"wall": seconds, "times": [], "strata": [], "stdouts": [stdout], "summary": {}, "shares": []}
    try:
        result = json.loads(stdout) if code == 0 else None
    except ValueError:
        result = None
    if result is None:
        run.fail(f"certify worker exit {code}: {stderr.strip()[-500:]}", jobs=len(points))
        return out
    block_problems = [p for p in map(joblib.check_certify_block, result["blocks"]) if p]
    if len(result["points"]) != len(points):
        run.fail(f"certify worker answered {len(result['points'])} of {len(points)} points",
                 jobs=len(points))
        return out
    for point, outcome in zip(points, result["points"]):
        out["times"].append(outcome["s"])
        out["strata"].append(f"{point['flavor']}-m{point['m']}")
        problem = outcome.get("error") or joblib.check_certify_point(point, outcome)
        if problem or block_problems:
            run.fail(f"certify point: {problem or block_problems[0]}")
    if traced:
        trace = tracing.load(run.spans)
        out["summary"] = tracing.summarize(trace)
        under = tracing.children_under(trace, "certify.point")
        under.pop("deformation.verify_homomorphism", None)  # bracket_defect's caller
        point_total = out["summary"].get("certify.point", {}).get("s", 0.0)
        largest = max(under, key=under.get) if under else None
        if largest != "deformation.bracket_defect":
            run.fail(f"certify: largest span under the points is {largest}, not bracket_defect", jobs=0)
        for name in ("cohomology.act_monomial", "kernel.matrix_rank"):
            if name in under:
                run.fail(f"certify: {name} ran inside the per-point work", jobs=0)
        out["shares"].append(("per-point", {name: t / point_total for name, t in under.items()}))
    return out


def run_pass(run: Run, index: int, traced: bool) -> dict:
    if run.workload == "dim-cold":
        return cold_pass(run, joblib.dim_pass(run.seed, index), traced)
    if run.workload == "deform-cold":
        return cold_pass(run, joblib.deform_pass(run.seed, index), traced)
    return certify_pass(run, joblib.certify_pass(run.seed, index), traced)


# ---------------------------------------------------------------------------
# Whole runs
# ---------------------------------------------------------------------------


def keep_going(run: Run, pass_seconds: list[float]) -> bool:
    """Start another pass only if a typical one still ends before the deadline."""
    return time.perf_counter() + statistics.median(pass_seconds) <= run.deadline


def tail(times: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples beyond) at the highest percentile that
    still has ten samples beyond it, or None with too few jobs."""
    n = len(times)
    if n < TAIL_MIN_JOBS:
        return None
    rank = n - 10  # 1-based rank of the reported sample
    return sorted(times)[rank - 1], 100.0 * rank / n, n - rank


def measure(run: Run) -> dict:
    """Untraced run: the end-to-end metrics."""
    setup = [run.setup_probe() for _ in range(SETUP_PROBES_PER_PASS)]
    passes, pass_seconds = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(run, len(passes), traced=False))
        setup.extend(run.setup_probe() for _ in range(SETUP_PROBES_PER_PASS))
        pass_seconds.append(time.perf_counter() - t0)
        if not keep_going(run, pass_seconds):
            break
    times = [t for p in passes for t in p["times"]]
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    lines = [f"  setup_s      {metrics['setup_s'][0]:.4f} s   (median of {len(setup)} set-ups)",
             f"  wall_s       {metrics['wall_s'][0]:.4f} s   (median of {len(passes)} passes)",
             f"  job_p50_s    {metrics['job_p50_s'][0]:.4f} s   (n={len(times)} jobs)"]
    t = tail(times)
    lines.append(f"  job_tail_s   {t[0]:.4f} s   (p{t[1]:.1f}, {t[2]} of {len(times)} jobs beyond)"
                 if t else f"  job_tail_s   omitted ({len(times)} jobs; needs {TAIL_MIN_JOBS})")
    lines.append(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.3f} MB")
    lines.append(f"  failed_frac  {run.failed / run.attempted:.4f}   ({run.failed} of {run.attempted})")
    by_stratum: dict[str, list[float]] = {}
    for p in passes:
        for stratum, seconds in zip(p["strata"], p["times"]):
            by_stratum.setdefault(stratum, []).append(seconds)
    lines.append("  job median by stratum: " + ", ".join(
        f"{k} {statistics.median(v):.3f} s (n={len(v)})" for k, v in sorted(by_stratum.items())))
    return {"metrics": metrics, "lines": lines}


def measure_traced(run: Run) -> dict:
    """Traced run: pairs of a traced and an untraced pass on the same inputs."""
    traced, plain, pass_seconds = [], [], []
    while True:
        t0 = time.perf_counter()
        index = len(traced)
        traced.append(run_pass(run, index, traced=True))
        plain.append(run_pass(run, index, traced=False))
        if run.workload != "certify-warm":
            differ = sum(a != b for a, b in zip(traced[-1]["stdouts"], plain[-1]["stdouts"]))
            if differ:
                run.fail(f"pass {index}: traced stdout differs from `python -m symdef.cli` stdout "
                         f"on {differ} jobs", jobs=differ)
        pass_seconds.append(time.perf_counter() - t0)
        if not keep_going(run, pass_seconds):
            break
    per_pass = [tracing.layer_metrics(p["summary"]) for p in traced]
    values = {}
    for name, value in per_pass[0].items():
        if name.rsplit(".", 1)[1] in ("s", "self_s"):
            value = statistics.median(m[name] for m in per_pass)
        values[name] = value
    for problem in tracing.expectation_failures(run.workload, values):
        run.fail(f"layer expectation: {problem}", jobs=0)
    traced_wall = statistics.median(p["wall"] for p in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(p["wall"] for p in plain)
    metrics = {name: (values[name], unit) for name, unit in tracing.metric_names()}
    lines = [f"  traced passes {len(traced)}; tracing overhead {values['trace.overhead_s']:+.4f} s "
             f"per pass (traced wall_s {traced_wall:.4f} s)"]
    shares: dict[str, list[dict]] = {}
    for p in traced:
        for stratum, share in p["shares"]:
            shares.setdefault(stratum, []).append(share)
    for stratum, rows in sorted(shares.items()):
        keys = sorted({k for row in rows for k in row})
        parts = [f"{k.split('.')[-1]} {statistics.median(r.get(k, 0.0) for r in rows):.0%}" for k in keys]
        lines.append(f"  shares of {'cohomology_dim' if stratum != 'per-point' else 'point time'}"
                     f" [{stratum}]: " + ", ".join(parts))
    return {"metrics": metrics, "lines": lines}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    run = Run(workload, seed, seconds, workdir)
    run.setup_probe()  # unmeasured: compiles bytecode on a fresh checkout
    outcome = measure_traced(run) if trace else measure(run)
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"elapsed {time.perf_counter() - run.start:.1f} s")
    for line in outcome["lines"]:
        print(line)
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in outcome["metrics"].items()}}


def run_all(args) -> int:
    """Each workload in its own benchmark process, exactly as it runs alone;
    the last line combines their results."""
    results = {}
    for workload in joblib.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}.{name}": m for w, r in results.items()
                                  for name, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*joblib.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symdef" / "__init__.py").is_file():
        print(f"no symdef sources under {SRC}; run from the root of a symdef checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
