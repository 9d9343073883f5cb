"""CLI suite: subcommand behavior, exit codes, report determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import symdef.catalog as catalog
import symdef.cli as cli
import symdef.cohomology as cohomology
import symdef.deformation as deformation
import symdef.operators as operators
from symdef.cli import ENGINE_FAULT, FALSIFIED, INCONCLUSIVE, USAGE, VERIFIED, main, render, run
from symdef.cohomology import Cochain0, Cochain1, Cochain2, d0
from symdef.geometry import Poly
from symdef.kernel import InternalError
from symdef.operators import DiffOp, SuperDiffOp


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestVerifyCocycle:
    def test_phi_verified(self):
        report, code = run(["verify-cocycle", "--id", "Phi:k=2"])
        assert code == VERIFIED
        assert report["verdict"] == "verified"
        assert report["result"]["is_cocycle"] is True
        assert report["result"]["stable_under_bump"] is True

    def test_lambda_normalized(self):
        report, code = run(["verify-cocycle", "--id", "A:lambda=0/1"])
        assert code == VERIFIED
        assert report["result"]["id"] == "A:lambda=0"

    def test_unknown_family_usage_error(self):
        report, code = run(["verify-cocycle", "--id", "Zeta:k=2"])
        assert code == USAGE
        assert report["verdict"] == "usage-error"

    def test_explicit_bounds_accepted(self):
        report, code = run(["verify-cocycle", "--id", "Y:k=1", "--bounds", "6,16"])
        assert code == VERIFIED
        assert report["result"]["bounds"] == {"max_operator_order": 6, "max_coefficient_degree": 16}

    def test_malformed_bounds(self):
        _, code = run(["verify-cocycle", "--id", "Y:k=1", "--bounds", "six"])
        assert code == USAGE

    @pytest.mark.parametrize("cochain,result", [
        (Cochain1("sl2", [DiffOp.partial(1, 1, 1, Poly.x_power(3))] * 3), {"is_cocycle": False}),
        (d0(Cochain0("sl2", DiffOp.partial(1, 1, 1, Poly.x_power(2)))),
         {"is_cocycle": True, "coboundary": True}),
    ], ids=["not-closed", "coboundary"])
    def test_falsified_verdicts(self, monkeypatch, fresh_convention_check, cochain, result):
        """A cochain that is not closed, and a coboundary, each exit 1; the
        sign-convention check reads catalog.build_cocycle and still passes."""
        monkeypatch.setattr(cli, "build_cocycle", lambda cid: cochain)
        report, code = run(["verify-cocycle", "--id", "A:lambda=1"])
        assert code == FALSIFIED
        assert report["verdict"] == "falsified"
        assert report["result"] == {"id": "A:lambda=1", **result}
        assert report["sign_convention"]["is_default"] is True


class TestCohomologyDim:
    def test_diagonal(self):
        report, code = run(
            ["cohomology-dim", "--algebra", "sl2", "--lambda", "5/3", "--mu", "5/3", "--degree", "1"]
        )
        assert code == VERIFIED
        assert report["result"]["dim"] == 1
        assert report["result"]["stabilized"] is True

    def test_resonant_super(self):
        report, code = run(
            ["cohomology-dim", "--algebra", "osp12", "--lambda", "0", "--mu", "1/2", "--degree", "1"]
        )
        assert code == VERIFIED
        assert report["result"]["dim"] == 2

    def test_odd_critical_key_on_sl2_is_not_examined(self):
        """w* = -2(mu - lambda) = -1 holds no sl(2) cochain, so no key is
        examined."""
        report, code = run(
            ["cohomology-dim", "--algebra", "sl2", "--lambda=0", "--mu=1/2", "--degree", "1"]
        )
        assert code == VERIFIED
        assert report["result"]["dim"] == 0 and report["result"]["stabilized"] is True
        assert report["result"]["examined_weight_keys"] == []

    @pytest.mark.parametrize("weights,degree,bounds", [
        (("-1", "3/2"), "1", "1,2"), (("-3", "7/2"), "1", "8,16"), (("-3", "7/2"), "2", "8,16"),
    ])
    def test_bounds_below_the_threshold_order_are_inconclusive(self, weights, degree, bounds):
        """The threshold order N0 = 2 delta is 5 and 13; at these bounds the
        truncated dimension is 0 in place of 2, 2 and 1, and it does not
        move at the bumped bounds either."""
        report, code = run(["cohomology-dim", "--algebra", "osp12", f"--lambda={weights[0]}",
                            f"--mu={weights[1]}", "--degree", degree, "--bounds", bounds])
        assert code == INCONCLUSIVE and report["verdict"] == "inconclusive"
        assert report["result"]["dim"] == 0 and report["result"]["stabilized"] is False


class TestIntegrability:
    def test_satisfied_point(self, tmp_path):
        path = write_spec(
            tmp_path,
            {"flavor": "classical", "m": 3, "window": 8,
             "params": {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}},
        )
        report, code = run(["integrability", "--spec", path])
        assert code == VERIFIED
        assert report["result"]["derived_all_satisfied"] is True

    def test_violated_point_exits_one(self, tmp_path):
        path = write_spec(
            tmp_path,
            {"flavor": "classical", "m": 3, "window": 8,
             "params": {"a0": "1", "a2": "1", "b2": "1", "c2": "0"}},
        )
        report, code = run(["integrability", "--spec", path])
        assert code == FALSIFIED
        row = report["result"]["conditions"][0]
        assert row["published_value"] == "2"
        assert row["derived_value"] == "2"

    def test_missing_file(self):
        _, code = run(["integrability", "--spec", "/does/not/exist.json"])
        assert code == USAGE

    def test_malformed_spec_field(self, tmp_path):
        path = write_spec(tmp_path, {"flavor": "weird", "m": 3})
        report, code = run(["integrability", "--spec", path])
        assert code == USAGE
        assert "flavor" in report["error"]

    def test_spec_that_is_not_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("not json")
        report, code = run(["integrability", "--spec", str(path)])
        assert code == USAGE
        assert f"spec file {str(path)!r} is not valid JSON" in report["error"]

    def test_missing_params(self, tmp_path):
        path = write_spec(tmp_path, {"flavor": "classical", "m": 3})
        _, code = run(["integrability", "--spec", path])
        assert code == USAGE

    @pytest.mark.parametrize("patch", ["no-decomposition", "inexact-reassembly"])
    def test_unchecked_conditions_give_no_verdict(self, tmp_path, monkeypatch, patch):
        """Without a derived report whose reassembly is exact there is no
        evidence: integrability exits 2, as obstruction does, at a point
        that satisfies the conditions and at one that violates them."""
        if patch == "no-decomposition":
            monkeypatch.setattr(deformation, "decompose_cocycle",
                                lambda c, family, bounds: cohomology.NoSolutionWithinBounds(bounds))
        else:
            monkeypatch.setattr(deformation.ObstructionReport, "verify_reassembly",
                                lambda self, action: False)
        for params in ({"a0": "1", "a2": "3", "b2": "1", "c2": "3"},
                       {"a0": "1", "a2": "1", "b2": "1", "c2": "0"}):
            path = write_spec(tmp_path, {"flavor": "classical", "m": 3, "params": params})
            report, code = run(["integrability", "--spec", path])
            assert (code, report["verdict"]) == (INCONCLUSIVE, "inconclusive")
            assert report["result"]["derived_all_satisfied"] is None
        _, code = run(["obstruction", "--flavor", "classical", "--m", "3"])
        assert code == INCONCLUSIVE


POINT = {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}

# spec fields that must be rejected, never coerced: (payload, field named in the error)
UNCOERCED_SPECS = [
    ({"flavor": "classical", "m": 2.7, "params": POINT}, "spec.m"),
    ({"flavor": "classical", "m": "3", "params": POINT}, "spec.m"),
    ({"flavor": "classical", "m": True, "params": POINT}, "spec.m"),
    ({"flavor": "classical", "m": 3, "window": "x", "params": POINT}, "spec.window"),
    ({"flavor": "classical", "m": 3, "window": 8.5, "params": POINT}, "spec.window"),
    ({"flavor": "super", "m": 1.0, "params": {"a0": "1"}}, "spec.m"),
    ({"flavor": "classical", "m": 3, "windw": 5, "params": {"a0": 1}}, "windw"),
    ({"flavor": "super", "m": 1, "params": {"a0": "1", "b1": "3"}}, "odd parameter 'b1'"),
    ({"flavor": "classical", "delta": 1.6666666666666667, "params": {"a0": "1"}}, "spec.delta"),
    ({"flavor": "classical", "delta": True, "params": {"a0": "1"}}, "spec.delta"),
    ({"flavor": "classical", "m": 3, "params": {"a0": 0.5}}, "spec.params.a0"),
    ({"flavor": "classical", "m": 3, "params": {**POINT, "a1": False}}, "spec.params.a1"),
    ({"flavor": "classical", "m": 3, "params": {"a0": "0.5"}},
     "spec.params.a0: not a rational: '0.5'"),
    ({"flavor": "classical", "m": 3, "params": {"a0": "1e3"}},
     "spec.params.a0: not a rational: '1e3'"),
    # refused outright
    ({"flavor": "classical", "m": 3, "window": 0, "params": POINT}, "window must be positive"),
    ({"flavor": "classical", "m": 3, "params": {"zz": "1"}}, "unknown parameter 'zz'"),
    ([{"flavor": "classical", "m": 3, "params": POINT}], "must contain a JSON object"),
    ({"flavor": "classical", "window": 8, "params": POINT}, "either 'm' or 'delta'"),
    ({"flavor": "classical", "m": 3, "params": [1]}, "spec.params must be an object"),
    ({"flavor": "classical", "m": 3, "delta": "7/2", "params": {"a0": "1"}},
     "both 'm' and 'delta'"),
]

DIM_NUMERAL = ["cohomology-dim", "--algebra", "sl2", "--mu=1", "--degree", "1"]

# command lines that must be rejected, never read as something else:
# (name, argv, text named in the error)
UNCOERCED_ARGS = [
    ("repeated-id-key", ["verify-cocycle", "--id", "B:m=5,k=3,k=4"], "catalog id"),
    ("repeated-equal-id-key", ["verify-cocycle", "--id", "Phi:k=2,k=2"], "catalog id"),
    ("no-band-super-m0", ["obstruction", "--flavor", "super", "--m", "0"], "resonant band"),
    ("no-band-classical-m1", ["obstruction", "--flavor", "classical", "--m", "1"],
     "resonant band"),
    ("example1-no-band-m1", ["example1", "--m", "1", "--alphas", "1"], "resonant band"),
    ("example1-no-band-m0", ["example1", "--m", "0", "--alphas", "1"], "resonant band"),
    ("example1-no-band-negative-m", ["example1", "--m", "-2", "--alphas", "1,2"], "resonant band"),
    ("id-repeated-key-reason", ["verify-cocycle", "--id", "B:m=5,k=3,k=4"], "repeated key 'k'"),
    ("id-unknown-family", ["verify-cocycle", "--id", "Q:k=2"], "unknown cocycle family 'Q'"),
    ("id-wrong-keys", ["verify-cocycle", "--id", "B:m=3"], "B takes exactly m=<int>,k=<int>"),
    ("id-bad-int", ["verify-cocycle", "--id", "Phi:k=x"], "malformed catalog id 'Phi:k=x'"),
    ("id-bad-rational", ["verify-cocycle", "--id", "A:lambda=1/0"], "malformed catalog id"),
    ("alphas-empty-entry", ["example1", "--m", "3", "--alphas", "1,,0,5"], "--alphas"),
    ("alphas-trailing-comma", ["example1", "--m", "3", "--alphas", "1,0,5,"], "--alphas"),
    ("lambda-without-value", ["cohomology-dim", "--algebra", "sl2", "--lambda", "--mu", "1",
                              "--degree", "1"], "expected one argument"),
    # numerals outside ASCII -?[0-9]+(/[0-9]+)?, which int() and Fraction() would read
    ("lambda-underscore", DIM_NUMERAL + ["--lambda=1_000"], "not a rational: '1_000'"),
    ("lambda-exponent", DIM_NUMERAL + ["--lambda=1e3"], "not a rational: '1e3'"),
    ("lambda-arabic-indic-digit", DIM_NUMERAL + ["--lambda=\u0663"], "not a rational"),
    ("lambda-decimal", DIM_NUMERAL + ["--lambda=0.5"], "not a rational: '0.5'"),
    ("lambda-plus-sign", DIM_NUMERAL + ["--lambda=+1/2"], "not a rational: '+1/2'"),
    ("alphas-exponent", ["example1", "--m", "3", "--alphas", "1,1e0,5"], "not a rational"),
    ("alphas-beyond-window", ["example1", "--m", "3", "--alphas", "1,0,5,7,9,11,13",
                              "--window", "4"], "--alphas gives 7 values, but the window 4"),
    ("id-plus-sign", ["verify-cocycle", "--id", "Phi:k=+2"], "malformed catalog id"),
    ("id-underscore", ["verify-cocycle", "--id", "B:m=3,k=1_0"], "malformed catalog id"),
    ("id-rational-k", ["verify-cocycle", "--id", "Phi:k=4/2"], "malformed catalog id"),
    ("k-underscore", ["lemma23", "--k", "1_0"], "argument --k: not an integer: '1_0'"),
    ("m-arabic-indic-digit", ["obstruction", "--flavor", "classical", "--m", "\u0663"],
     "argument --m: not an integer: '\u0663'"),
    ("window-plus-sign", ["example1", "--m", "3", "--alphas", "1", "--window", "+8"],
     "argument --window: not an integer: '+8'"),
    ("degree-underscore", ["cohomology-dim", "--algebra", "sl2", "--lambda=0", "--mu=1",
                           "--degree", "0_1"], "argument --degree: not an integer: '0_1'"),
    ("bounds-underscore", ["verify-cocycle", "--id", "Y:k=1", "--bounds", "6,1_6"], "--bounds"),
]

# specs without a resonant band, where `integrability` would have nothing to
# check: (name, payload)
NO_BAND_SPECS = [
    ("classical-m1", {"flavor": "classical", "m": 1, "params": {"a0": "1"}}),
    ("super-m0", {"flavor": "super", "m": 0, "params": {"a0": "1"}}),
]

UNCOERCED_ROWS = [
    pytest.param([command, "--spec"], payload, field, id=f"payload{n}-{field}-{command}")
    for n, (payload, field) in enumerate(UNCOERCED_SPECS)
    for command in ("integrability", "flat-deform")
] + [pytest.param(argv, None, text, id=name) for name, argv, text in UNCOERCED_ARGS] + [
    pytest.param(["integrability", "--spec"], payload, "resonant band",
                 id=f"integrability-no-band-{name}")
    for name, payload in NO_BAND_SPECS
]


@pytest.mark.parametrize("argv,payload,field", UNCOERCED_ROWS)
def test_spec_fields_are_not_coerced(tmp_path, argv, payload, field):
    if payload is not None:
        argv = argv + [write_spec(tmp_path, payload)]
    report, code = run(argv)
    assert code == USAGE
    assert field in report["error"]


@pytest.mark.parametrize("argv", [["lemma23", "--k", "2"], ["lemma23", "--k", "0"]],
                         ids=["report", "usage-error"])
def test_format_equals_form(capsys, argv):
    """`--format=json` is read like `--format json`: same streams, byte for byte."""
    outputs = []
    for fmt in (["--format=json"], ["--format", "json"]):
        code = main(argv + fmt)
        outputs.append((code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    out, err = outputs[0][1:]
    json.loads(out or err)


DIM_ARGS = ["cohomology-dim", "--algebra", "sl2", "--degree", "1", "--bounds", "4,10"]

# a negative value after a space is read as its `=` form: (name, argv, `=` form)
SIGNED_VALUES = [
    ("lambda", DIM_ARGS + ["--lambda", "-1/2", "--mu=3/2"], DIM_ARGS + ["--lambda=-1/2", "--mu=3/2"]),
    ("mu", DIM_ARGS + ["--lambda=-1/2", "--mu", "-3/2"], DIM_ARGS + ["--lambda=-1/2", "--mu=-3/2"]),
    ("alphas", ["example1", "--m", "3", "--alphas", "-1,0,5"],
     ["example1", "--m", "3", "--alphas=-1,0,5"]),
]


@pytest.mark.parametrize("argv,equals_form", [row[1:] for row in SIGNED_VALUES],
                         ids=[row[0] for row in SIGNED_VALUES])
def test_negative_value_after_a_space(argv, equals_form):
    report, code = run(argv)
    assert code != USAGE, report.get("error")
    assert (report, code) == run(equals_form)


@pytest.mark.parametrize("argv", [["lemma23", "--k", "2"], ["flat-deform", "--spec", "spec.json"],
                                  ["example1", "--m", "3", "--alphas", "1,0,5"]],
                         ids=["lemma23", "flat-deform", "example1"])
def test_bounds_refused_where_unread(argv):
    """Only the subcommands whose solves read --bounds accept it."""
    report, code = run(argv + ["--bounds", "0,0"])
    assert code == USAGE
    assert "--bounds" in report["error"]


def test_engine_fault_has_its_own_exit_code(monkeypatch, capsys):
    def broken(args):
        raise InternalError("invariant broke")

    monkeypatch.setattr(cli, "_cmd_lemma23", broken)
    code = main(["lemma23", "--k", "3", "--format", "json"])
    out, err = capsys.readouterr()
    assert code == ENGINE_FAULT == 70
    assert out == ""
    assert "Traceback" in err
    report = json.loads(err[err.index("\n{") + 1:])
    assert report["verdict"] == "engine-fault"
    assert report["error_type"] == "InternalError"
    assert report["error"] == "invariant broke"


def test_closed_stdout_is_an_engine_fault():
    """A reader that closes stdout before the report arrives gets exit 70 and
    one line on stderr, not a traceback and exit 1 ("falsified")."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")])))
    proc = subprocess.Popen([sys.executable, "-m", "symdef.cli", "verify-cocycle", "--id",
                             "Phi:k=2", "--format", "json"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == ENGINE_FAULT
    assert err.count("\n") == 1 and "closed" in err, err


@pytest.fixture
def fresh_convention_check():
    caches = (catalog.calibrate_convention, catalog.certified_cocycle)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def test_failed_convention_check_is_an_engine_fault(monkeypatch, fresh_convention_check):
    build = catalog.build_cocycle

    def not_closed_for_A1(cid):
        if str(cid) == "A:lambda=1":
            return Cochain1("sl2", [DiffOp.partial(1, 1, 1, Poly.x_power(3))] * 3)
        return build(cid)

    monkeypatch.setattr(catalog, "build_cocycle", not_closed_for_A1)
    report, code = run(["lemma23", "--k", "2"])
    assert code == ENGINE_FAULT
    assert report["verdict"] == "engine-fault"
    assert report["error_type"] == "InternalError"


MONOMIAL_ACTION = cohomology.monomial_action


def negated_action(x, lam, mu):
    """The action tables with the sign of every entry flipped: -rho is no
    representation, so the catalog families are not closed under it."""
    den, act = MONOMIAL_ACTION(x, lam, mu)
    return den, lambda mon, scale=1: tuple((key, -n) for key, n in act(mon, scale))


def test_sign_flipped_action_tables_fail_the_convention_check(monkeypatch, capsys,
                                                               fresh_certificates,
                                                               fresh_convention_check):
    """The check reads the integer action tables that every dimension reads,
    so a wrong table is an engine fault before it can give a verdict."""
    monkeypatch.setattr(cohomology, "monomial_action", negated_action)
    message = "A:lambda=1 is not a cocycle under the fixed sign convention"
    with pytest.raises(InternalError, match=message):
        catalog.calibrate_convention()
    argv = ["cohomology-dim", "--algebra", "sl2", "--lambda=0", "--mu=1", "--degree", "1"]
    assert engine_fault(capsys, argv) == message


NOT_CLOSED = Cochain1("sl2", [DiffOp.partial(1, 1, 1, Poly.x_power(3))] * 3)


@pytest.mark.parametrize("name, mutant, sample", [
    ("d1", lambda c: cohomology.d1(NOT_CLOSED), "C:m=3,k=2"),
    ("d2", lambda w: {(0, 1, 2): NOT_CLOSED.images[0]}, "Phi:k=1"),
], ids=["d1", "d2"])
def test_typed_cross_check_fails_the_convention_check(monkeypatch, capsys,
                                                      fresh_convention_check, name, mutant,
                                                      sample):
    """A typed differential that calls its sample not closed is an engine
    fault too, although the tables call it closed."""
    monkeypatch.setattr(catalog, name, mutant)
    error = engine_fault(capsys, ["lemma23", "--k", "2"])
    assert error == f"{sample} is not a cocycle under the fixed sign convention"


@pytest.fixture
def fresh_certificates(monkeypatch):
    """Family and L0 certificates, action tables and commutation tables built
    inside the test only."""
    monkeypatch.setattr(cohomology, "_BLOCK_CACHES", {})
    caches = (catalog.certified_cocycle, deformation._undeformed_window,
              operators._cached_commutation_tables)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def engine_fault(capsys, argv):
    code = main(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    assert code == ENGINE_FAULT
    assert out == ""
    report = json.loads(err[err.index("\n{") + 1:])
    assert report["error_type"] == "InternalError"
    return report["error"]


def test_non_cocycle_family_is_an_engine_fault(monkeypatch, capsys, fresh_certificates):
    build, keys = catalog._FAMILIES["B"]

    def not_closed(m, k):
        family = build(m, k)
        lam, mu = family.images[0].lam, family.images[0].mu
        extra = DiffOp.partial(1, lam, mu, Poly.x_power(3))
        return Cochain1("sl2", {**family.images, 0: family.images[0] + extra})

    monkeypatch.setitem(catalog._FAMILIES, "B", (not_closed, keys))
    error = engine_fault(capsys, ["obstruction", "--flavor", "classical", "--m", "3"])
    assert error == "B:m=3,k=2 is not a cocycle under the fixed sign convention"


def stray_phi(k):
    """Phi plus a constant times d^(k-1) at the pair (0, 1) from k = 4 on:
    no cocycle, while the calibration samples Phi:k=1,2 stay closed."""
    family = catalog.cocycle_Phi(k)
    if k < 4:
        return family
    image = family.images[(0, 1)]
    stray = DiffOp.partial(k - 1, image.lam, image.mu, Poly([1]))
    return Cochain2("sl2", {**family.images, (0, 1): image + stray})


def doubled_omega(k):
    """Omega with the image of the pair (3, 4) doubled from k = 3 on: no
    cocycle, while the calibration samples Omega:k=1,2 stay closed."""
    family = catalog.cocycle_Omega(k)
    if k < 3:
        return family
    return Cochain2("osp12", {**family.images, (3, 4): family.images[(3, 4)].scale(2)}, parity=1)


CLASSICAL_M5 = {"flavor": "classical", "m": 5, "params": {"a0": "1"}}
SUPER_M3 = {"flavor": "super", "m": 3, "params": {"a0": "1"}}


@pytest.mark.parametrize("family, mutant, argv, spec, cid", [
    ("Phi", stray_phi, ["obstruction", "--flavor", "classical", "--m", "5"], None, "Phi:k=4"),
    ("Phi", stray_phi, ["integrability", "--spec"], CLASSICAL_M5, "Phi:k=4"),
    ("Phi", stray_phi, ["example1", "--m", "5", "--alphas=1,2,3,4,5"], None, "Phi:k=4"),
    ("Omega", doubled_omega, ["obstruction", "--flavor", "super", "--m", "3"], None, "Omega:k=3"),
    ("Omega", doubled_omega, ["integrability", "--spec"], SUPER_M3, "Omega:k=3"),
], ids=["obstruction-classical", "integrability-classical", "example1", "obstruction-super",
        "integrability-super"])
def test_non_cocycle_obstruction_basis_is_an_engine_fault(monkeypatch, capsys, tmp_path,
                                                          fresh_certificates, family, mutant,
                                                          argv, spec, cid):
    """A degree-2 basis that is no cocycle is the engine's fault, not the
    input's: the defect block is split against certified bases only."""
    monkeypatch.setitem(catalog._FAMILIES, family, (mutant, catalog._FAMILIES[family][1]))
    if spec is not None:
        argv = argv + [write_spec(tmp_path, spec)]
    error = engine_fault(capsys, argv)
    assert error == f"{cid} is not a cocycle under the fixed sign convention"


SUPER_LIE_OP = operators.super_lie_op


def flipped_eta(x, lam):
    """The super density action with its eta coefficient of the wrong sign."""
    op = SUPER_LIE_OP(x, lam)
    return SuperDiffOp(op.lam, op.mu, [op.coefficient(0), -op.coefficient(1), op.coefficient(2)])


def second_derivative(x, lam):
    """g d_x + lam g'' in place of g d_x + lam g': no representation of sl(2)."""
    return DiffOp(lam, lam, [x.g.derivative().derivative().scale(lam), x.g])


@pytest.mark.parametrize("name, mutant, spec", [
    ("super_lie_op", flipped_eta,
     {"flavor": "super", "m": 1, "params": {"a0": "0", "a1": "0", "a-1": "4"}}),
    ("lie_op", second_derivative,
     {"flavor": "classical", "m": 3, "params": {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}}),
], ids=["super", "classical"])
def test_broken_undeformed_action_is_an_engine_fault(monkeypatch, capsys, tmp_path,
                                                     fresh_certificates, name, mutant, spec):
    monkeypatch.setattr(operators, name, mutant)
    error = engine_fault(capsys, ["flat-deform", "--spec", write_spec(tmp_path, spec)])
    assert re.fullmatch(rf"the undeformed {spec['flavor']} action on weight \S+ is not a "
                        r"homomorphism on the pair \(\d, \d\)", error), error


class TestFlatDeform:
    def test_flat_point(self, tmp_path):
        path = write_spec(
            tmp_path,
            {"flavor": "classical", "m": 3,
             "params": {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}},
        )
        report, code = run(["flat-deform", "--spec", path])
        assert code == VERIFIED

    def test_non_flat_point_reports_block(self, tmp_path):
        path = write_spec(
            tmp_path,
            {"flavor": "classical", "m": 3,
             "params": {"a0": "1", "a2": "1", "b2": "1", "c2": "0"}},
        )
        report, code = run(["flat-deform", "--spec", path])
        assert code == FALSIFIED
        assert report["result"]["first_failure"]["residual_blocks"] == ["2->0"]

    def test_super_spec(self, tmp_path):
        path = write_spec(
            tmp_path,
            {"flavor": "super", "m": 1, "params": {"a0": "0", "a1": "0", "a-1": "4"}},
        )
        report, code = run(["flat-deform", "--spec", path])
        assert code == VERIFIED

    def test_spec_with_delta(self, tmp_path):
        """A non-resonant spec given by delta renders its delta back."""
        path = write_spec(tmp_path, {"flavor": "classical", "delta": "1/3", "params": {"a0": "1"}})
        report, code = run(["flat-deform", "--spec", path])
        assert code == VERIFIED
        assert report["result"]["spec"] == {"flavor": "classical", "window": 8, "delta": "1/3",
                                            "params": {"a0": "1"}}
        assert '"delta": "1/3"' in render(report, "json")


class TestExample1AndLemma23:
    def test_example1_verified(self):
        report, code = run(["example1", "--m", "3", "--alphas", "1,0,5"])
        assert code == VERIFIED
        assert report["result"]["families_coincide"] is True
        assert report["result"]["solved_family_flat"] is True

    def test_example1_alpha_guard(self):
        _, code = run(["example1", "--m", "3", "--alphas", "1,0,1"])
        assert code == USAGE

    def test_lemma23(self):
        report, code = run(["lemma23", "--k", "4"])
        assert code == VERIFIED


class TestObstructionCommand:
    def test_classical_m3(self):
        report, code = run(["obstruction", "--flavor", "classical", "--m", "3"])
        assert code == VERIFIED
        result = report["result"]
        assert result["reassembly_exact"] is True
        assert result["condition_generators"] == ["a0*c2 + 2*a2*b2 - a2*c2"]
        assert result["published_comparison"][0]["agreement"] == "discrepancy"

    def test_super_m2(self):
        report, code = run(["obstruction", "--flavor", "super", "--m", "2"])
        assert code == VERIFIED
        assert len(report["result"]["condition_generators"]) == 2


class TestReportShape:
    def test_embeds_sign_convention(self):
        report, _ = run(["lemma23", "--k", "2"])
        assert report["sign_convention"]["convention"] == {"action_sign": 1, "bracket_sign": 1}
        assert report["engine_version"]

    def test_json_determinism(self, tmp_path):
        path = write_spec(
            tmp_path,
            {"flavor": "classical", "m": 3,
             "params": {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}},
        )
        first, _ = run(["integrability", "--spec", path])
        second, _ = run(["integrability", "--spec", path])
        blob1 = render({**first, "input": {}}, "json")
        blob2 = render({**second, "input": {}}, "json")
        assert blob1 == blob2

    def test_text_render_is_flat_lines(self):
        report, _ = run(["lemma23", "--k", "2"])
        text = render(report, "text")
        assert "verdict: verified" in text

    def test_main_exit_codes(self, capsys):
        assert main(["lemma23", "--k", "2"]) == VERIFIED
        out = capsys.readouterr().out
        assert "verdict" in out
        assert main(["lemma23", "--k", "0", "--format", "json"]) == USAGE

    def test_missing_subcommand_is_usage(self):
        _, code = run([])
        assert code == USAGE
