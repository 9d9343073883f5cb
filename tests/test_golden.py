"""Golden reports: the `--format json` stdout of fixed commands and the
default `--format text` stdout of two of them, compared byte for byte, and
every README CLI line run verbatim."""

import json
import re
import shlex
from pathlib import Path

import pytest

from symdef.cli import USAGE, run, render

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
README = HERE.parent / "README.md"

README_SPEC = {"flavor": "classical", "m": 3, "window": 8,
               "params": {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}}

CASES = [
    ("cohomology_dim_sl2_degree2.json",
     ["cohomology-dim", "--algebra", "sl2", "--lambda=-1/2", "--mu=3/2", "--degree", "2",
      "--bounds", "6,16"]),
    ("cohomology_dim_osp12_degree1.json",
     ["cohomology-dim", "--algebra", "osp12", "--lambda=-1", "--mu=3/2", "--degree", "1",
      "--bounds", "5,12"]),
    ("cohomology_dim_sl2_degree1.json",
     ["cohomology-dim", "--algebra", "sl2", "--lambda=1/3", "--mu=2/3", "--degree", "1",
      "--bounds", "10,24"]),
    ("obstruction_classical_m3.json", ["obstruction", "--flavor", "classical", "--m", "3"]),
    ("obstruction_super_m2.json", ["obstruction", "--flavor", "super", "--m", "2"]),
    ("obstruction_super_m3.json", ["obstruction", "--flavor", "super", "--m", "3"]),
    ("obstruction_classical_m5.json", ["obstruction", "--flavor", "classical", "--m", "5"]),
    ("verify_cocycle_phi2.json", ["verify-cocycle", "--id", "Phi:k=2"]),
    ("flat_deform_readme.json", ["flat-deform", "--spec", "spec.json"]),
]

TEXT_CASES = [(name.replace(".json", ".txt"), argv) for name, argv in CASES
              if name in ("obstruction_classical_m3.json", "verify_cocycle_phi2.json")]


@pytest.fixture
def spec_dir(tmp_path, monkeypatch):
    (tmp_path / "spec.json").write_text(json.dumps(README_SPEC))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_json_report_matches_golden(name, argv, spec_dir):
    report, code = run(argv + ["--format", "json"])
    assert code == 0
    assert render(report, "json") + "\n" == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", TEXT_CASES, ids=[name for name, _ in TEXT_CASES])
def test_text_report_matches_golden(name, argv):
    report, code = run(argv)
    assert code == 0
    assert render(report, "text") + "\n" == (GOLDEN / name).read_text(encoding="utf-8")


def readme_cli_lines() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## CLI\s*```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("symdef ")]


def test_readme_block_found():
    assert len(readme_cli_lines()) >= 7


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=lambda argv: argv[0])
def test_readme_cli_line_is_not_a_usage_error(argv, spec_dir):
    report, code = run(argv)
    assert code != USAGE, report.get("error")
