"""The CLI answer corpus: fixed command lines, each with its spec file, and
the exit code, stdout and stderr they give in ``--format json`` and
``--format text``.

Regenerate it from the root of a checkout (standard library only):

    python tests/make_cli_corpus.py

This writes ``tests/golden/cli_corpus.json``; ``tests/test_cli_corpus.py``
replays every entry through ``symdef.cli.main`` and requires the same bytes
and exit codes.  A spec file is written as ``spec.json`` into the working
directory of the run, so the reports name it by that relative path.  An
entry that changes is a change of the JSON contract or of a verdict.

Engine faults (exit 70) are left out: their stderr holds a traceback with
the paths of this checkout.  The tests that patch the engine cover them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "golden" / "cli_corpus.json"
FORMATS = ("json", "text")
SPEC = "spec.json"


def _spec(payload) -> str:
    return json.dumps(payload)


README_SPEC = {"flavor": "classical", "m": 3, "window": 8,
               "params": {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}}
POINT = {"a0": "1", "a2": "3", "b2": "1", "c2": "3"}
DIM = ["cohomology-dim", "--algebra", "sl2", "--mu=1", "--degree", "1"]

# (name, argv, spec payload or None); a spec is written as spec.json
SPEC_COMMANDS = [
    ("classical-m3-on-variety", README_SPEC),
    ("classical-m3-off-variety", {"flavor": "classical", "m": 3, "window": 8,
                                  "params": {"a0": "1", "a2": "1", "b2": "1", "c2": "0"}}),
    ("classical-m4-off-variety", {"flavor": "classical", "m": 4,
                                  "params": {"a0": "1", "a1": "2", "b3": "1", "c3": "5/2"}}),
    ("classical-m2-on-variety", {"flavor": "classical", "m": 2, "params": {"a0": "2", "a1": "2"}}),
    ("super-m1-on-variety", {"flavor": "super", "m": 1,
                             "params": {"a0": "0", "a1": "0", "a-1": "4"}}),
    ("super-m1-off-variety", {"flavor": "super", "m": 1,
                              "params": {"a0": "1", "a1": "0", "a-1": "4"}}),
    ("super-m2-on-variety", {"flavor": "super", "m": 2, "params": {"a0": "0"}}),
    ("super-m2-off-variety", {"flavor": "super", "m": 2, "params": {"a1": "1", "a0": "2"}}),
    ("super-m2-off-variety-2", {"flavor": "super", "m": 2, "params": {"a2": "3"}}),
    ("classical-no-band", {"flavor": "classical", "m": 1, "params": {"a0": "1"}}),
    ("super-no-band", {"flavor": "super", "m": 0, "params": {"a0": "1"}}),
    ("classical-delta-non-resonant", {"flavor": "classical", "delta": "5/3", "window": 3,
                                      "params": {"a0": "1"}}),
    # odd parameters pinned to "0" are zero in the action as in the conditions
    ("super-m1-odd-pinned-to-zero", {"flavor": "super", "m": 1, "params": {
        "a0": "1", "a1": "2", "a-1": "3", "b1": "0", "c1": "0"}}),
]

# spec fields refused with exit 64 by both spec commands
REFUSED_SPECS = [
    {"flavor": "classical", "m": 2.7, "params": POINT},
    {"flavor": "classical", "m": "3", "params": POINT},
    {"flavor": "classical", "m": True, "params": POINT},
    {"flavor": "classical", "m": 3, "window": "x", "params": POINT},
    {"flavor": "classical", "m": 3, "window": 8.5, "params": POINT},
    {"flavor": "super", "m": 1.0, "params": {"a0": "1"}},
    {"flavor": "classical", "m": 3, "windw": 5, "params": {"a0": 1}},
    {"flavor": "super", "m": 1, "params": {"a0": "1", "b1": "3"}},
    {"flavor": "classical", "delta": 1.6666666666666667, "params": {"a0": "1"}},
    {"flavor": "classical", "delta": True, "params": {"a0": "1"}},
    {"flavor": "classical", "m": 3, "params": {"a0": 0.5}},
    {"flavor": "classical", "m": 3, "params": {**POINT, "a1": False}},
    {"flavor": "classical", "m": 3, "params": {"a0": "0.5"}},
    {"flavor": "classical", "m": 3, "params": {"a0": "1e3"}},
    {"flavor": "classical", "m": 3, "window": 0, "params": POINT},
    {"flavor": "classical", "m": 3, "params": {"zz": "1"}},
    [{"flavor": "classical", "m": 3, "params": POINT}],
    {"flavor": "classical", "window": 8, "params": POINT},
    {"flavor": "classical", "m": 3, "params": [1]},
    {"flavor": "classical", "m": 3, "delta": "7/2", "params": {"a0": "1"}},
    {"flavor": "weird", "m": 3},
    {"flavor": "classical", "m": 5, "window": 2, "params": POINT},
]


def entries() -> list[tuple[str, list[str], str | None]]:
    """(name, argv, spec file text or None) of every corpus entry."""
    out: list[tuple[str, list[str], str | None]] = [
        # verify-cocycle
        ("verify-Phi2", ["verify-cocycle", "--id", "Phi:k=2"], None),
        ("verify-Omega2", ["verify-cocycle", "--id", "Omega:k=2"], None),
        ("verify-A-normalized", ["verify-cocycle", "--id", "A:lambda=0/1"], None),
        ("verify-B53", ["verify-cocycle", "--id", "B:m=5,k=3"], None),
        ("verify-Ytilde2", ["verify-cocycle", "--id", "Ytilde:k=2"], None),
        ("verify-Yprime", ["verify-cocycle", "--id", "Yprime:lambda=1/2"], None),
        ("verify-Y1-bounds", ["verify-cocycle", "--id", "Y:k=1", "--bounds", "6,16"], None),
        ("verify-Phi2-small-bounds", ["verify-cocycle", "--id", "Phi:k=2", "--bounds", "1,1"],
         None),
        ("verify-unknown-family", ["verify-cocycle", "--id", "Zeta:k=2"], None),
        ("verify-wrong-keys", ["verify-cocycle", "--id", "B:m=3"], None),
        ("verify-repeated-key", ["verify-cocycle", "--id", "B:m=5,k=3,k=4"], None),
        ("verify-plus-sign", ["verify-cocycle", "--id", "Phi:k=+2"], None),
        ("verify-rational-k", ["verify-cocycle", "--id", "Phi:k=4/2"], None),
        ("verify-lambda-zero-denominator", ["verify-cocycle", "--id", "A:lambda=1/0"], None),
        ("verify-bounds-word", ["verify-cocycle", "--id", "Y:k=1", "--bounds", "six"], None),
        ("verify-bounds-underscore", ["verify-cocycle", "--id", "Y:k=1", "--bounds", "6,1_6"],
         None),
        ("verify-bounds-negative", ["verify-cocycle", "--id", "Y:k=1", "--bounds", "-1,4"], None),
        # cohomology-dim
        ("dim-sl2-diagonal", ["cohomology-dim", "--algebra", "sl2", "--lambda", "5/3", "--mu",
                              "5/3", "--degree", "1"], None),
        ("dim-sl2-resonant-d1", ["cohomology-dim", "--algebra", "sl2", "--lambda=-1/2",
                                 "--mu", "3/2", "--degree", "1"], None),
        ("dim-sl2-resonant-d2", ["cohomology-dim", "--algebra", "sl2", "--lambda=-1/2",
                                 "--mu=3/2", "--degree", "2"], None),
        ("dim-osp12-resonant-d1", ["cohomology-dim", "--algebra", "osp12", "--lambda", "0",
                                   "--mu", "1/2", "--degree", "1"], None),
        ("dim-osp12-d2", ["cohomology-dim", "--algebra", "osp12", "--lambda=-1", "--mu=3/2",
                          "--degree", "2"], None),
        ("dim-sl2-odd-key", ["cohomology-dim", "--algebra", "sl2", "--lambda=0", "--mu=1/2",
                             "--degree", "1"], None),
        ("dim-below-threshold", ["cohomology-dim", "--algebra", "osp12", "--lambda=-1",
                                 "--mu=3/2", "--degree", "1", "--bounds", "1,2"], None),
        ("dim-bounds-zero", ["cohomology-dim", "--algebra", "sl2", "--lambda=0", "--mu=1",
                             "--degree", "1", "--bounds", "0,0"], None),
        ("dim-unknown-algebra", ["cohomology-dim", "--algebra", "sl3", "--lambda=0", "--mu=1",
                                 "--degree", "1"], None),
        ("dim-degree-3", ["cohomology-dim", "--algebra", "sl2", "--lambda=0", "--mu=1",
                          "--degree", "3"], None),
        ("dim-degree-underscore", ["cohomology-dim", "--algebra", "sl2", "--lambda=0",
                                   "--mu=1", "--degree", "0_1"], None),
        ("dim-lambda-underscore", DIM + ["--lambda=1_000"], None),
        ("dim-lambda-exponent", DIM + ["--lambda=1e3"], None),
        ("dim-lambda-arabic-indic", DIM + ["--lambda=٣"], None),
        ("dim-lambda-decimal", DIM + ["--lambda=0.5"], None),
        ("dim-lambda-plus", DIM + ["--lambda=+1/2"], None),
        ("dim-lambda-missing", ["cohomology-dim", "--algebra", "sl2", "--lambda", "--mu", "1",
                                "--degree", "1"], None),
        ("dim-bounds-one-field", DIM + ["--lambda=0", "--bounds", "4"], None),
        # obstruction
        *((f"obstruction-classical-m{m}", ["obstruction", "--flavor", "classical", "--m", str(m)],
           None) for m in range(2, 6)),
        *((f"obstruction-super-m{m}", ["obstruction", "--flavor", "super", "--m", str(m)], None)
          for m in range(1, 4)),
        ("obstruction-classical-m3-window", ["obstruction", "--flavor", "classical", "--m", "3",
                                             "--window", "3"], None),
        ("obstruction-classical-m3-small-bounds", ["obstruction", "--flavor", "classical",
                                                   "--m", "3", "--bounds", "1,1"], None),
        ("obstruction-super-m2-small-bounds", ["obstruction", "--flavor", "super", "--m", "2",
                                               "--bounds", "1,2"], None),
        ("obstruction-no-band-classical", ["obstruction", "--flavor", "classical", "--m", "1"],
         None),
        ("obstruction-no-band-super", ["obstruction", "--flavor", "super", "--m", "0"], None),
        ("obstruction-window-too-small", ["obstruction", "--flavor", "classical", "--m", "5",
                                          "--window", "2"], None),
        ("obstruction-m-arabic-indic", ["obstruction", "--flavor", "classical", "--m",
                                        "٣"], None),
        ("obstruction-bounds-word", ["obstruction", "--flavor", "super", "--m", "1",
                                     "--bounds", "x,1"], None),
        ("obstruction-unknown-flavor", ["obstruction", "--flavor", "quantum", "--m", "3"], None),
        # example1
        ("example1-m3", ["example1", "--m", "3", "--alphas", "1,0,5"], None),
        ("example1-m2", ["example1", "--m", "2", "--alphas", "1,3"], None),
        ("example1-m4", ["example1", "--m", "4", "--alphas", "1,2,5,7"], None),
        ("example1-m5", ["example1", "--m", "5", "--alphas=1,2,3,4,5"], None),
        ("example1-signed-alphas", ["example1", "--m", "3", "--alphas", "-1,0,5"], None),
        ("example1-window", ["example1", "--m", "3", "--alphas", "1,0,5", "--window", "4"],
         None),
        ("example1-too-few-alphas", ["example1", "--m", "3", "--alphas", "1"], None),
        ("example1-alphas-beyond-window", ["example1", "--m", "3", "--alphas",
                                           "1,0,5,7,9,11,13", "--window", "4"], None),
        ("example1-equal-alphas", ["example1", "--m", "3", "--alphas", "1,0,1"], None),
        ("example1-empty-alpha", ["example1", "--m", "3", "--alphas", "1,,0,5"], None),
        ("example1-trailing-comma", ["example1", "--m", "3", "--alphas", "1,0,5,"], None),
        ("example1-alpha-exponent", ["example1", "--m", "3", "--alphas", "1,1e0,5"], None),
        ("example1-no-band", ["example1", "--m", "1", "--alphas", "1"], None),
        ("example1-window-plus", ["example1", "--m", "3", "--alphas", "1", "--window", "+8"],
         None),
        ("example1-bounds", ["example1", "--m", "3", "--alphas", "1,0,5", "--bounds", "4,4"],
         None),
        # lemma23
        ("lemma23-k2", ["lemma23", "--k", "2"], None),
        ("lemma23-k5", ["lemma23", "--k", "5"], None),
        ("lemma23-k0", ["lemma23", "--k", "0"], None),
        ("lemma23-underscore", ["lemma23", "--k", "1_0"], None),
        ("lemma23-bounds", ["lemma23", "--k", "2", "--bounds", "4,4"], None),
        # the parser
        ("no-command", [], None),
        ("unknown-command", ["deform"], None),
        ("integrability-missing-file", ["integrability", "--spec", "missing.json"], None),
        ("integrability-not-json", ["integrability", "--spec", SPEC], "not json"),
        ("integrability-no-params", ["integrability", "--spec", SPEC],
         _spec({"flavor": "classical", "m": 3})),
        ("integrability-small-bounds", ["integrability", "--spec", SPEC, "--bounds", "1,1"],
         _spec(README_SPEC)),
        ("flat-deform-bounds", ["flat-deform", "--spec", SPEC, "--bounds", "4,4"],
         _spec(README_SPEC)),
    ]
    for name, payload in SPEC_COMMANDS:
        for command in ("integrability", "flat-deform"):
            out.append((f"{command}-{name}", [command, "--spec", SPEC], _spec(payload)))
    out.append(("flat-deform-formal", ["flat-deform", "--spec", SPEC],
                _spec({"flavor": "super", "m": 1, "window": 3})))
    for n, payload in enumerate(REFUSED_SPECS):
        for command in ("integrability", "flat-deform"):
            out.append((f"{command}-refused-spec-{n}", [command, "--spec", SPEC], _spec(payload)))
    return out


def capture(argv: list[str], spec: str | None, fmt: str, directory: Path) -> dict:
    """Exit code, stdout and stderr of one ``symdef.cli.main`` run in
    `directory`, with the spec file written there first."""
    from symdef.cli import main

    if spec is not None:
        (directory / SPEC).write_text(spec, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", fmt])
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def build(directory: Path) -> dict:
    corpus = []
    for name, argv, spec in entries():
        runs = {fmt: capture(argv, spec, fmt, directory) for fmt in FORMATS}
        if any(run["exit"] not in (0, 1, 2, 64) for run in runs.values()):
            raise SystemExit(f"{name}: exit {runs['json']['exit']} does not belong in the corpus")
        corpus.append({"name": name, "argv": argv, "spec": spec, "runs": runs})
    return {"entries": corpus}


def main() -> None:
    import tempfile

    sys.path.insert(0, str(HERE.parent / "src"))
    with tempfile.TemporaryDirectory() as directory:
        corpus = build(Path(directory))
    text = json.dumps(corpus, indent=1, sort_keys=True, ensure_ascii=False) + "\n"
    CORPUS.write_text(text, encoding="utf-8")
    codes = sorted({run["exit"] for e in corpus["entries"] for run in e["runs"].values()})
    print(f"wrote {len(corpus['entries'])} entries to {CORPUS} (exit codes {codes})")


if __name__ == "__main__":
    main()
