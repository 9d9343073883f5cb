"""The certify-warm worker: the acceptance criteria 4-5 protocol in one
long-lived process, through symdef's public names only.

Reads a pass description (``jobs.certify_pass``) as JSON on stdin; writes
per-block and per-point outcomes and times as JSON on stdout.

    python perfbench/certify.py [SPANS_FILE]   # with a file: traced
"""

import json
import sys
import time
import traceback

import tracing


def main() -> int:
    job = json.load(sys.stdin)
    tracer = tracing.Tracer() if len(sys.argv) > 1 else None
    start = time.perf_counter()
    import symdef
    import symdef.cli  # noqa: F401  (the same set-up every CLI invocation pays)

    if tracer:
        tracer.record("cli.import", start, time.perf_counter())
        tracing.install(tracer)
    try:
        symdef.calibrate_convention()
        generators, blocks = {}, []
        for flavor, m in job["blocks"]:
            spec = symdef.DeformationSpec.resonant_spec(flavor, m)
            action = symdef.build_infinitesimal(spec)
            report = symdef.obstruction_classes(action)
            generators[(flavor, m)] = report.condition_generators
            blocks.append({"flavor": flavor, "m": m, "reassembly": report.verify_reassembly(action),
                           "ks": [entry.k for entry in report.blocks],
                           "generators": [str(g) for g in report.condition_generators]})
        points = []
        for point in job["points"]:
            span = tracer.open("certify.point") if tracer else None
            t0 = time.perf_counter()
            try:
                params = point["params"]
                spec = symdef.DeformationSpec.resonant_spec(point["flavor"], point["m"], params=params)
                action = symdef.build_infinitesimal(spec)
                vanish = all(not g.substitute(params) for g in generators[(point["flavor"], point["m"])])
                outcome = {"vanish": vanish, "passed": symdef.verify_homomorphism(action).passed}
            except Exception:  # a crash fails this point; the run goes on
                outcome = {"error": traceback.format_exc(limit=3)}
            outcome["s"] = time.perf_counter() - t0
            if span:
                tracer.close(span)
            points.append(outcome)
    finally:
        if tracer:
            tracer.dump(sys.argv[1])
    json.dump({"blocks": blocks, "points": points}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
