"""Exact symbolic verification of deformations of the sl(2)- and
osp(1|2)-module structures on spaces of symbols of differential operators.

Everything is computed over exact rationals: weighted-density actions,
operator normal forms, Chevalley-Eilenberg differentials, bounded
coboundary solves, and the obstruction calculus that derives the
integrability conditions of infinitesimal deformations.

The public names below load lazily (PEP 562): ``from symdef import X``
imports only the module that defines ``X``, so a process pays only for
what it uses.  Each access resolves through that module, so a name
rebound there (for example by a tracer) is what the root returns.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("kernel", "geometry", "operators", "cohomology", "catalog", "deformation")

# public name -> defining module
_EXPORTS = {
    name: module
    for module, names in (
        ("kernel", "ParamAlgebra ParamScalar UsageError format_rational parse_rational"),
        ("geometry", "CLASSICAL SUPER ContactField Density Poly SuperPoly VectorField "
                     "contact_bracket density_action eta_bar osp_basis sl2_basis "
                     "super_density_action vf_bracket"),
        ("operators", "DiffOp GradedOp SuperDiffOp apply compose lie_derivative_op "
                      "principal_symbol super_lie_derivative_op supercommutator"),
        ("cohomology", "BoundsSpec Cochain Cochain0 Cochain1 Cochain2 NoSolutionWithinBounds "
                       "Witness coboundary_solve cohomology_dim d0 d1 d2"),
        ("catalog", "build_cocycle calibrate_convention cocycle_A cocycle_B cocycle_C "
                    "cocycle_Omega cocycle_Phi cocycle_Y cocycle_Yprime cocycle_Ytilde "
                    "lemma23_check parse_catalog_id"),
        ("deformation", "DeformationSpec DeformedAction bracket_defect build_infinitesimal "
                        "check_published_conditions example1_family gauge_transform "
                        "obstruction_classes trivialize_second_order verify_homomorphism"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_EXPORTS})
