"""Package root suite: the lazily loaded public names and what each
subcommand's process imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symdef

# The names the package root re-exports, by defining module.
ROOT_EXPORTS = {
    "kernel": ("ParamAlgebra", "ParamScalar", "UsageError", "format_rational",
               "parse_rational"),
    "geometry": ("CLASSICAL", "SUPER", "ContactField", "Density", "Poly", "SuperPoly",
                 "VectorField", "contact_bracket", "density_action", "eta_bar", "osp_basis",
                 "sl2_basis", "super_density_action", "vf_bracket"),
    "operators": ("DiffOp", "GradedOp", "SuperDiffOp", "apply", "compose",
                  "lie_derivative_op", "principal_symbol", "super_lie_derivative_op",
                  "supercommutator"),
    "cohomology": ("BoundsSpec", "Cochain", "Cochain0", "Cochain1", "Cochain2",
                   "NoSolutionWithinBounds", "Witness", "coboundary_solve", "cohomology_dim",
                   "d0", "d1", "d2"),
    "catalog": ("build_cocycle", "calibrate_convention", "cocycle_A", "cocycle_B", "cocycle_C",
                "cocycle_Omega", "cocycle_Phi", "cocycle_Y", "cocycle_Yprime", "cocycle_Ytilde",
                "lemma23_check", "parse_catalog_id"),
    "deformation": ("DeformationSpec", "DeformedAction", "bracket_defect", "build_infinitesimal",
                    "check_published_conditions", "example1_family", "gauge_transform",
                    "obstruction_classes", "trivialize_second_order", "verify_homomorphism"),
}
EXPORTED = [(module, name) for module, names in ROOT_EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", EXPORTED, ids=[name for _, name in EXPORTED])
def test_root_name_is_the_defining_modules_object(module, name):
    namespace: dict = {}
    exec(f"from symdef import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"symdef.{module}"), name)
    assert name in dir(symdef)
    assert name in symdef.__all__


def test_submodules_and_version_stay_reachable():
    assert symdef.__version__ == "0.1.0"
    for module in ROOT_EXPORTS:
        assert getattr(symdef, module) is importlib.import_module(f"symdef.{module}")
        assert module in dir(symdef)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        symdef.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from symdef import no_such_name", {})


# The last line the probe prints: the exit code, whether `deformation` was
# loaded, and which of the heavy standard modules that no subcommand needs
# were.  The probe runs without `site` (-S), so no site hook preloads any.
PROBE = ("import sys\n"
         "from symdef.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(code, 'symdef.deformation' in sys.modules,\n"
         "      sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n")


@pytest.mark.parametrize("argv, loaded", [
    (["cohomology-dim", "--algebra", "sl2", "--lambda=0", "--mu=1", "--degree", "1",
      "--bounds", "4,8"], False),
    (["verify-cocycle", "--id", "A:lambda=1"], False),
    (["lemma23", "--k", "2"], False),
    (["obstruction", "--flavor", "classical", "--m", "2"], True),
], ids=["cohomology-dim", "verify-cocycle", "lemma23", "obstruction"])
def test_only_deformation_commands_load_deformation(argv, loaded):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv, "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loaded} []"
