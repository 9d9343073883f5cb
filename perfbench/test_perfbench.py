"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench

They pin that the answer oracle encodes the documented formulas, that
tracing leaves the CLI's stdout byte-identical, that the wrappers reach
every binding, that count metrics repeat exactly between two traced runs
on one seed, and that the benchmark refuses to run without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

import jobs
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))


def python(*argv, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=cwd, env=ENV, timeout=timeout)


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_generator_parsing_matches_the_derived_formulas():
    assert jobs.parse_generator("a0*c2 + 2*a2*b2 - a2*c2") == jobs.derived_condition("classical", 3, 2)
    assert jobs.parse_generator("a-1*b2 - a-1*c2 + a2*c2") == jobs.derived_condition("super", 2, 2)
    doubled = jobs.parse_generator("-2*a0*c1 - 2*a1*b1 + 2*a1*c1")
    assert jobs.proportional(doubled, jobs.derived_condition("classical", 2, 1))
    published_super = jobs.parse_generator("a0*b1 + a0*c1 - a1*c1")  # sign of c_k flipped
    assert not jobs.proportional(published_super, jobs.derived_condition("super", 1, 1))


@pytest.mark.parametrize("flavor,m", [("classical", 2), ("classical", 5), ("super", 1), ("super", 3)])
def test_points_land_on_or_off_the_variety_as_asked(flavor, m):
    import random

    rng = random.Random(7)
    for _ in range(20):
        assert jobs.condition_vanishes(flavor, m, jobs.make_point(rng, flavor, m, True))
        assert not jobs.condition_vanishes(flavor, m, jobs.make_point(rng, flavor, m, False))


def test_super_condition_keeps_odd_parameters_formal():
    # b1*a0 - c1*a0 + c1*a1 vanishes as a polynomial only if a0 = a1 = 0
    assert not jobs.condition_vanishes("super", 1, {"a0": Q(0), "a1": Q(1)})
    assert jobs.condition_vanishes("super", 1, {"a0": Q(0), "a1": Q(0), "a5": Q(3)})


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def _sample_jobs():
    dim = jobs.dim_pass(3, 0)
    deform = jobs.deform_pass(3, 1)
    cheap = [j for j in dim if j["stratum"] in ("sl2-diagonal-d1", "sl2-resonant-d2")]
    return cheap + [j for j in deform if not j["stratum"].startswith("obstruction-super")]


@pytest.mark.parametrize("job", _sample_jobs(), ids=lambda j: j["stratum"])
def test_traced_stdout_is_byte_identical(job, tmp_path):
    for name, content in job.get("files", {}).items():
        (tmp_path / name).write_text(content)
    plain = python("-m", "symdef.cli", *job["argv"], cwd=tmp_path)
    traced = python(str(HERE / "traced_cli.py"), str(tmp_path / "spans.json"), *job["argv"], cwd=tmp_path)
    assert plain.stdout.encode() == traced.stdout.encode()
    assert plain.returncode == traced.returncode
    assert jobs.check_cli(job, traced.returncode, traced.stdout) is None
    assert tracing.load(tmp_path / "spans.json")["spans"]


def test_install_reaches_every_binding_and_refuses_to_run_twice():
    probe = (
        "import symdef.cli, symdef.cohomology as c, symdef.operators as o, symdef.kernel as k, tracing\n"
        "t = tracing.Tracer(); n = tracing.install(t)\n"
        "assert c.super_lie_derivative_op is o.super_lie_derivative_op\n"
        "assert hasattr(c.super_lie_derivative_op, 'perfbench_original')\n"
        "assert hasattr(symdef.cli.cohomology_dim, 'perfbench_original')\n"
        "assert hasattr(symdef.cohomology_dim, 'perfbench_original')\n"
        "assert hasattr(k.matrix_rank, 'perfbench_original')\n"
        "try:\n    tracing.install(t)\nexcept RuntimeError:\n    print(n)\n"
    )
    result = python("-c", probe, cwd=HERE)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 22  # every target, several bound in more than one module


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_counts_repeat_exactly(workload):
    def counts():
        result = python(str(HERE / "run.py"), "--workload", workload, "--seed", "5",
                        "--seconds", "1", "--trace", "1")
        assert result.returncode == 0, result.stderr
        final = json.loads(result.stdout.splitlines()[-1])
        assert final["correct"], result.stderr
        return {k: m["value"] for k, m in final["metrics"].items() if m["unit"] in ("count", "ratio")}

    first = counts()
    assert first == counts()
    assert first["kernel.ParamScalar.mul.calls"] if workload != "dim-cold" else \
        first["kernel.matrix_rank.calls"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = python("perfbench/run.py", "--workload", "dim-cold", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path, timeout=60)
    assert result.returncode != 0
    assert "{" not in result.stdout
