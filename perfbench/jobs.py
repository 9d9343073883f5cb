"""Seeded job lists for the three workloads, and the answer oracle.

A workload is a fixed mix of strata.  A run repeats *passes* over the mix;
pass ``i`` of seed ``s`` draws its inputs from ``random.Random(f"{s}:{i}")``,
so the same seed always gives the same inputs and every pass uses every
code path.  Expected answers come from the paper's dimension table and
from the engine's documented derived-condition formulas, evaluated here
with a few lines of independent polynomial arithmetic; they never come from
a recording of earlier output.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as Q

WORKLOADS = ("dim-cold", "deform-cold", "certify-warm")

# ---------------------------------------------------------------------------
# Derived integrability conditions, as bilinear forms in the parameters
# ---------------------------------------------------------------------------


def resonant_ks(flavor: str, m: int) -> list[int]:
    return list(range((m + 1) // 2, m)) if flavor == "classical" else list(range(1, m + 1))


def derived_condition(flavor: str, m: int, k: int) -> dict[tuple, Q]:
    """Generator k as {sorted symbol tuple: coefficient}.

    classical: (2k-m+1) b_k a_k + c_k a_{m-k-1} - c_k a_k
    super:     b_k a_{1-k} - c_k a_{1-k} + c_k a_k   (b_k, c_k odd)
    """
    out: dict[tuple, Q] = {}

    def add(coeff, *names):
        key = tuple(sorted(names))
        out[key] = out.get(key, Q(0)) + coeff
        if not out[key]:
            del out[key]

    b, c = f"b{k}", f"c{k}"
    if flavor == "classical":
        add(Q(2 * k - m + 1), b, f"a{k}")
        add(Q(1), c, f"a{m - k - 1}")
        add(Q(-1), c, f"a{k}")
    else:
        add(Q(1), b, f"a{1 - k}")
        add(Q(-1), c, f"a{1 - k}")
        add(Q(1), c, f"a{k}")
    return out


def parse_generator(text: str) -> dict[tuple, Q]:
    """Parse the engine's rendering, e.g. ``a0*c2 + 2*a2*b2 - a2*c2``."""
    text = text.strip()
    if text == "0":
        return {}
    sign = Q(1)
    if text.startswith("-"):
        sign, text = Q(-1), text[1:]
    chunks = []
    for piece in text.split(" + "):
        parts = piece.split(" - ")
        chunks.append((sign, parts[0]))
        chunks.extend((Q(-1), p) for p in parts[1:])
        sign = Q(1)
    out: dict[tuple, Q] = {}
    for sgn, term in chunks:
        coeff, names = sgn, []
        for factor in term.split("*"):
            if factor[0].isdigit():
                coeff *= Q(factor)
            else:
                name, _, exp = factor.partition("^")
                names.extend([name] * int(exp or 1))
        key = tuple(sorted(names))
        out[key] = out.get(key, Q(0)) + coeff
    return {k: v for k, v in out.items() if v}


def proportional(p: dict, q: dict) -> bool:
    """True when p = s*q for some nonzero rational s (both nonzero)."""
    if not p or not q or set(p) != set(q):
        return False
    key = next(iter(q))
    s = p[key] / q[key]
    return all(p[m] == s * q[m] for m in q)


def condition_vanishes(flavor: str, m: int, point: dict) -> bool:
    """Every derived generator vanishes at the point.

    Even parameters missing from the point count as zero; odd parameters
    (super b_k, c_k) stay formal, so a generator vanishes only when each of
    its remaining coefficients does."""
    odd = set()
    if flavor == "super":
        odd = {f"{p}{k}" for k in resonant_ks(flavor, m) for p in "bc"}
    for k in resonant_ks(flavor, m):
        residual: dict[tuple, Q] = {}
        for names, coeff in derived_condition(flavor, m, k).items():
            formal = tuple(n for n in names if n in odd)
            for n in names:
                if n not in odd:
                    coeff *= Q(point.get(n, 0))
            residual[formal] = residual.get(formal, Q(0)) + coeff
        if any(residual.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# Parameter points: half on the derived-condition variety, half off it
# ---------------------------------------------------------------------------


def _small(rng: random.Random) -> Q:
    return Q(rng.randrange(-3, 4))


def classical_point(rng: random.Random, m: int, on_variety: bool) -> dict[str, Q]:
    ks = resonant_ks("classical", m)
    while True:
        point = {f"a{c}": _small(rng) for c in range(m + 1)}
        if all(point[f"a{k}"] != point[f"a{m - 1 - k}"] for k in ks):
            break
    for k in ks:
        a_k, a_mirror = point[f"a{k}"], point[f"a{m - 1 - k}"]
        point[f"b{k}"] = _small(rng)
        point[f"c{k}"] = Q(2 * k - m + 1) * point[f"b{k}"] * a_k / (a_k - a_mirror)
    if not on_variety:
        point[f"c{rng.choice(ks)}"] += 1  # moves that generator by a_mirror - a_k != 0
    return point


def super_point(rng: random.Random, m: int, on_variety: bool) -> dict[str, Q]:
    window = max(8, 2 * m + 2)
    point = {f"a{m - j}": _small(rng) for j in range(window + 1)}
    for n in range(1 - m, m + 1):
        point[f"a{n}"] = Q(0)
    if not on_variety:
        point[f"a{rng.choice(resonant_ks('super', m))}"] = Q(rng.choice((-2, -1, 1, 2)))
    return point


def make_point(rng, flavor, m, on_variety):
    return (classical_point if flavor == "classical" else super_point)(rng, m, on_variety)


def point_json(point: dict) -> dict[str, str]:
    return {name: str(value) for name, value in sorted(point.items())}


# ---------------------------------------------------------------------------
# dim-cold: one block per stratum, each in a fresh `cohomology-dim` process
# ---------------------------------------------------------------------------

# Bounds are pinned per stratum so that a job's cost does not depend on
# which block the seed picks (default bounds grow with |mu - lambda|), and
# are the smallest tried here at which every candidate gives the stated
# dimension, stabilized.  (stratum, algebra, degree, bounds, expected dim,
# candidate (lambda, mu) blocks)
DIM_STRATA = (
    ("sl2-diagonal-d1", "sl2", 1, "10,24", 1,
     [(lam, lam) for lam in ("0", "1/2", "1", "2", "-1/2", "5/3", "3", "-3/4")]),
    ("sl2-resonant-d1", "sl2", 1, "10,24", 2,
     [("0", "1"), ("-1/2", "3/2"), ("-1", "2"), ("-3/2", "5/2")]),
    ("sl2-resonant-d2", "sl2", 2, "6,16", 1,
     [("0", "1"), ("-1/2", "3/2"), ("-1", "2")]),
    ("osp12-diagonal-d1", "osp12", 1, "3,8", 1,
     [(lam, lam) for lam in ("0", "1/2", "1", "5/3", "-1/2", "2")]),
    ("osp12-resonant-d1", "osp12", 1, "5,12", 2,
     [(str(Q(1 - k, 2)), str(Q(k, 2))) for k in (1, 2, 3)]),
    ("sl2-offresonant-d1", "sl2", 1, "10,24", 0,
     [("1/3", "2/3"), ("1/4", "2"), ("-1/3", "1/2"), ("2/5", "1")]),
)


def dim_pass(seed: int, index: int) -> list[dict]:
    """One block per stratum.  The seed picks where each stratum starts in
    its candidate list and successive passes step through it, so a run of
    three passes covers every osp(1|2) resonant block k = 1, 2, 3 once."""
    jobs = []
    for stratum, algebra, degree, bounds, dim, blocks in DIM_STRATA:
        start = random.Random(f"{seed}:{stratum}").randrange(len(blocks))
        lam, mu = blocks[(start + index) % len(blocks)]
        # `--lambda -1/2` (the README's form) is read by argparse as an
        # option and exits 64, so values are always passed as `--lambda=-1/2`.
        argv = ["cohomology-dim", "--algebra", algebra, f"--lambda={lam}", f"--mu={mu}",
                "--degree", str(degree), "--bounds", bounds, "--format", "json"]
        jobs.append({"stratum": stratum, "argv": argv, "check": "dim", "dim": dim})
    random.Random(f"{seed}:{index}").shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# deform-cold: short deformation jobs, each in a fresh process
# ---------------------------------------------------------------------------

CATALOG_IDS = ("A:lambda=5/3", "A:lambda=-1/2", "B:m=3,k=2", "C:m=4,k=3", "Phi:k=2",
               "Phi:k=3", "Yprime:lambda=1/2", "Y:k=1", "Y:k=2", "Ytilde:k=1", "Ytilde:k=2")


def deform_pass(seed: int, index: int) -> list[dict]:
    """Every obstruction window, plus one job of each other command.

    Values the cost depends on (m, the catalog family) follow the pass
    index, not the seed, so every seed does the same amount of work; the
    seed picks the parameter points, alphas and indices."""
    rng = random.Random(f"{seed}:{index}")
    jobs = []
    for flavor, ms in (("classical", (2, 3, 4, 5)), ("super", (1, 2, 3))):
        for m in ms:
            jobs.append({"stratum": f"obstruction-{flavor}",
                         "argv": ["obstruction", "--flavor", flavor, "--m", str(m), "--format", "json"],
                         "check": "obstruction", "flavor": flavor, "m": m})
    # Alternate which flavor sits on the variety, so exit codes 0 and 1
    # both occur for both flavors across passes.
    classical_on = index % 2 == 0
    for flavor, m, on in (("classical", (2, 3, 4, 5)[index % 4], classical_on),
                          ("super", (1, 2)[index // 2 % 2], not classical_on)):
        point = make_point(rng, flavor, m, on)
        spec = {"flavor": flavor, "m": m, "params": point_json(point)}
        name = f"spec-{seed}-{index}-{flavor}.json"
        for command in ("integrability", "flat-deform"):
            jobs.append({"stratum": f"{command}-{flavor}",
                         "argv": [command, "--spec", name, "--format", "json"],
                         "files": {name: json.dumps(spec, sort_keys=True)},
                         "check": command, "flavor": flavor, "m": m,
                         "ok": condition_vanishes(flavor, m, point)})
    cid = CATALOG_IDS[index % len(CATALOG_IDS)]
    jobs.append({"stratum": "verify-cocycle", "check": "verify-cocycle",
                 "argv": ["verify-cocycle", "--id", cid, "--format", "json"]})
    m = (3, 4, 5)[index % 3]
    while True:
        alphas = [Q(rng.randrange(-3, 4), rng.choice((1, 1, 2, 3))) for _ in range(m)]
        if all(alphas[k] != alphas[m - k - 1] for k in resonant_ks("classical", m)):
            break
    # `--alphas -1,...` would be read as an option, as with `--lambda`.
    jobs.append({"stratum": "example1", "check": "example1", "m": m,
                 "alphas": [str(a) for a in alphas],
                 "argv": ["example1", "--m", str(m), "--alphas=" + ",".join(str(a) for a in alphas),
                          "--format", "json"]})
    jobs.append({"stratum": "lemma23", "check": "lemma23",
                 "argv": ["lemma23", "--k", str(rng.choice((2, 3, 4))), "--format", "json"]})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# certify-warm: the acceptance criteria 4-5 protocol in one process
# ---------------------------------------------------------------------------

# Points per (flavor, m) in one pass.  Classical points take ~0.02-0.035 s
# (growing with m), super points ~0.15-0.25 s.  With as many m = 2, 3 points
# as m = 5 and super points together, the median sits in the middle of the
# m = 4 cluster, and the tail (ten points beyond it) inside the super one.
CERTIFY_MIX = {("classical", 2): 7, ("classical", 3): 7, ("classical", 4): 12,
               ("classical", 5): 2, ("super", 1): 4, ("super", 2): 4, ("super", 3): 4}


def certify_pass(seed: int, index: int) -> dict:
    rng = random.Random(f"{seed}:{index}")
    points = []
    for (flavor, m), count in CERTIFY_MIX.items():
        for n in range(count):
            point = make_point(rng, flavor, m, on_variety=n % 2 == 0)
            points.append({"flavor": flavor, "m": m, "params": point_json(point),
                           "ok": condition_vanishes(flavor, m, point)})
    rng.shuffle(points)
    return {"blocks": [list(key) for key in CERTIFY_MIX], "points": points}


# ---------------------------------------------------------------------------
# Checking CLI answers
# ---------------------------------------------------------------------------


def check_cli(job: dict, code: int, stdout: str) -> str | None:
    """None when the job's exit code and report are right, else the reason."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {code}, stdout is not JSON"
    result = report.get("result", {})
    kind = job["check"]
    want_code = 0
    if kind in ("integrability", "flat-deform"):
        want_code = 0 if job["ok"] else 1
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if report.get("verdict") != ("verified" if want_code == 0 else "falsified"):
        return f"verdict {report.get('verdict')!r}"
    if kind == "dim":
        if (result.get("dim"), result.get("stabilized")) != (job["dim"], True):
            return f"dim {result.get('dim')} stabilized {result.get('stabilized')}"
    elif kind == "obstruction":
        if result.get("verdict") != "derived" or result.get("reassembly_exact") is not True:
            return "obstruction not derived with exact reassembly"
        ks = [block["k"] for block in result.get("blocks", [])]
        if ks != resonant_ks(job["flavor"], job["m"]):
            return f"blocks {ks}"
        for k, text in zip(ks, result["condition_generators"]):
            if not proportional(parse_generator(text), derived_condition(job["flavor"], job["m"], k)):
                return f"generator k={k} {text!r} not proportional to the derived formula"
    elif kind == "integrability":
        if result.get("derived_all_satisfied") is not job["ok"]:
            return "derived_all_satisfied disagrees with the formula"
    elif kind == "flat-deform":
        if result.get("homomorphism") is not job["ok"]:
            return "homomorphism disagrees with the formula"
    elif kind == "verify-cocycle":
        if (result.get("is_cocycle"), result.get("coboundary"), result.get("stable_under_bump")) \
                != (True, False, True):
            return "catalog family not a stable nontrivial cocycle"
    elif kind == "example1":
        m, alphas = job["m"], [Q(a) for a in job["alphas"]]
        want = {str(k): str(Q(2 * k - m + 1) * alphas[k] / (alphas[k] - alphas[m - k - 1]))
                for k in resonant_ks("classical", m)}
        if result.get("solved_c_over_t") != want:
            return f"solved c/t {result.get('solved_c_over_t')} != {want}"
        if not (result.get("printed_family_flat") and result.get("solved_family_flat")
                and result.get("families_coincide")):
            return "one-parameter family not flat"
    elif kind == "lemma23":
        if result.get("passed") is not True or result.get("residual_pairs"):
            return "decomposition identity failed"
    return None


def check_certify_block(block: dict) -> str | None:
    """Check one (flavor, m) warm-phase result from the certify worker."""
    flavor, m = block["flavor"], block["m"]
    if not block["reassembly"]:
        return f"{flavor} m={m}: reassembly not exact"
    ks = resonant_ks(flavor, m)
    if block["ks"] != ks:
        return f"{flavor} m={m}: blocks {block['ks']}"
    for k, text in zip(ks, block["generators"]):
        if not proportional(parse_generator(text), derived_condition(flavor, m, k)):
            return f"{flavor} m={m}: generator {text!r} not proportional to the derived formula"
    return None


def check_certify_point(point: dict, outcome: dict) -> str | None:
    if not (outcome["passed"] == outcome["vanish"] == point["ok"]):
        return (f"{point['flavor']} m={point['m']}: homomorphism {outcome['passed']}, "
                f"generators vanish {outcome['vanish']}, formula {point['ok']}")
    return None
