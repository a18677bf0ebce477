"""The benchmark's workloads: inputs made from a seed, the job lists, and checks.

Each job has `run(traced)`, the timed call into the library, and
`check(result)`, run after the round and outside the timing, which returns
(status, detail, results). status is "ok", "p0" (the known undercount of
submodule enumeration: a count below the independent one) or "wrong"
(anything else that disagrees with an oracle). results is how many checked
results the job produced, the numerator of `results_per_s`.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles as orc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
INPUTS = HERE / "inputs"


def lists(m) -> list:
    """A library matrix as a list of rows (reads its entries, nothing else)."""
    return [list(r) for r in m.a]


mm = orc.q_matmul


def rand_int_matrix(rng, rows: int, cols: int, bound: int = 2) -> list:
    return [[Fraction(rng.randint(-bound, bound)) for _ in range(cols)] for _ in range(rows)]


def rand_unimodular(rng, n: int) -> list:
    """Unit lower times unit upper triangular: integral with determinant one."""
    lower = [[Fraction(int(i == j) or (rng.randint(-2, 2) if i > j else 0)) for j in range(n)]
             for i in range(n)]
    upper = [[Fraction(int(i == j) or (rng.randint(-2, 2) if i < j else 0)) for j in range(n)]
             for i in range(n)]
    return mm(lower, upper, n, n)


def admissible_projection(rng, model) -> dict:
    """Random rows that restrict to the identity on the socle coordinates."""
    out = {}
    for v in model.quiver.vertices:
        keep = set(model.socle_cols[v])
        out[v] = [[x if c in keep else Fraction(rng.randint(-2, 2)) for c, x in enumerate(row)]
                  for row in lists(model.pi[v])]
    return out


class HullData:
    """Plain-list copy of an injective model for the oracle checks."""

    def __init__(self, model):
        rep = model.rep
        self.model = model
        self.dims = dict(rep.dims)
        self.arrows = [(a.name, a.src, a.dst) for a in rep.quiver.arrows]
        self.maps = {a: lists(rep.map(a)) for a, _, _ in self.arrows}
        self.pi = {v: lists(model.pi[v]) for v in rep.quiver.vertices}
        self.socle_cols = {v: list(model.socle_cols[v]) for v in rep.quiver.vertices}


def check_intertwiner(gamma: dict, src_dims, src_maps, hull: HullData, twist,
                      arrows) -> str:
    """'' if gamma_t X_a = twist Y_a gamma_s for every arrow, else a message."""
    for name, s, t in arrows:
        lhs = mm(gamma[t], src_maps[name], src_dims[t], src_dims[s])
        rhs = mm(hull.maps[name], gamma[s], hull.dims[s], src_dims[s])
        if twist != 1:
            rhs = orc.q_scale(twist, rhs)
        if lhs != rhs:
            return f"not a (twisted) module map at arrow {name}"
    return ""


# -- extension -----------------------------------------------------------------------

# (dimension vector of the random representation, framing misses the last
# vertex, also solved under a second admissible projection). The shapes are
# fixed so that the amount of work barely depends on the seed; the seed
# draws every matrix entry.
EXT_SHAPES = [
    (dims, k % 2 == 1, (k // 2) % 2 == 0)
    for k, dims in enumerate([
        (1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (3, 1),
        (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 2, 1), (1, 2, 2), (2, 2, 2), (3, 2, 1),
        (1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (2, 2, 1, 1), (1, 1, 2, 2),
        (2, 2, 2, 1), (1, 2, 2, 2),
    ])
]
# Three draws per shape, so that the median job latency is taken over enough
# small solves not to hinge on one draw.
EXT_DRAWS = 3
INDUCED = [("A3", 3, 2), ("A3", 3, 3), ("A4", 4, 2), ("A4", 4, 3), ("D4", None, 2), ("A5", 5, 3)]


class RandomExtensionJob:
    def __init__(self, qg, rng, dims: tuple, starve: bool, second: bool, hulls: dict):
        from quivergrass.linalg import Mat

        n = len(dims)
        q = qg.line_quiver(n)
        dq = qg.double(q)
        self.name = f"extend A{n} {dims}{' starved' if starve else ''}{' +proj' if second else ''}"
        self.dims = dict(zip(q.vertices, dims))
        self.arrows = [(a.name, a.src, a.dst) for a in dq.arrows]
        plain = {}
        for name, s, t in self.arrows:
            plain[name] = (rand_int_matrix(rng, self.dims[t], self.dims[s]) if name in dq.base
                           else [[Fraction(0)] * self.dims[s] for _ in range(self.dims[t])])
        g = {v: rand_unimodular(rng, d) for v, d in self.dims.items()}
        g_inv = {v: orc.q_inverse(m) if m else [] for v, m in g.items()}
        self.maps = {}
        for name, s, t in self.arrows:
            left = mm(g[t], plain[name], self.dims[t], self.dims[s])
            self.maps[name] = mm(left, g_inv[s], self.dims[s], self.dims[s])
        self.rep = qg.make_rep(qg.QQ, dq, self.dims, self.maps)
        last = q.vertices[-1]
        w = {v: (0 if starve and v == last else d) for v, d in self.dims.items()}
        key = (n, tuple(w.values()))
        if key not in hulls:
            hulls[key] = HullData(qg.injective_hull(q, w))
        self.hull = hulls[key]
        self.tau_lists = {v: rand_int_matrix(rng, w[v], self.dims[v]) for v in self.dims}
        self.tau = {v: Mat.from_rows(qg.QQ, m, self.dims[v]) for v, m in self.tau_lists.items()}
        self.projections = [(self.hull.model, self.hull.pi)]
        if second:
            pi2 = admissible_projection(rng, self.hull.model)
            model2 = self.hull.model.with_projection(
                {v: Mat.from_rows(qg.QQ, m, self.hull.dims[v]) for v, m in pi2.items()})
            self.projections.append((model2, pi2))
        self._qg = qg
        self._certified: dict = {}

    def run(self, traced: bool):
        return [self._qg.extend_to_injective(self.rep, self.tau, model)
                for model, _ in self.projections]

    def check(self, results):
        ranks = []
        for k, (res, (_, pi)) in enumerate(zip(results, self.projections)):
            gamma = {v: lists(res.gamma[v]) for v in self.dims}
            msg = check_intertwiner(gamma, self.dims, self.maps, self.hull, 1, self.arrows)
            if msg:
                return "wrong", msg, 0
            for v in self.dims:
                if mm(pi[v], gamma[v], self.hull.dims[v], self.dims[v]) != self.tau_lists[v]:
                    return "wrong", f"projection equation fails at {v}", 0
            if k not in self._certified:
                rows, total = orc.intertwining_rows(self.dims, self.maps, self.hull.dims,
                                                    self.hull.maps, self.arrows, {}, pi)
                self._certified[k] = orc.full_rank_certified(rows, total)
            if not self._certified[k]:
                return "wrong", "uniqueness not certified", 0
            r = {v: orc.q_rank(gamma[v]) if gamma[v] else 0 for v in self.dims}
            if res.injective != all(r[v] == self.dims[v] for v in self.dims):
                return "wrong", "injectivity verdict disagrees with the rank", 0
            ranks.append(r)
        if len(ranks) == 2 and ranks[0] != ranks[1]:
            return "wrong", "image rank depends on the projection", 0
        return "ok", "", len(results)


class InducedJob:
    def __init__(self, qg, rng, label: str, hull: HullData, z: int):
        from quivergrass.linalg import Mat

        self.name = f"induced+grading {label} z={z}"
        self.hull, self.z = hull, z
        verts = list(hull.dims)
        self.signs = {v: rng.choice((1, -1)) for v in verts}
        self.g = {v: Mat.from_rows(qg.QQ, [[self.signs[v]]], 1) for v in verts}
        self._qg = qg
        self._certified = None

    def run(self, traced: bool):
        gamma = self._qg.induced_automorphism(self.hull.model, self.g, self.z)
        return gamma, self._qg.eigen_grading(self.hull.model, self.g, self.z, gamma=gamma)

    def check(self, result):
        gamma_m, grading = result
        h = self.hull
        gamma = {v: lists(gamma_m[v]) for v in h.dims}
        twist = Fraction(1, self.z)
        msg = check_intertwiner(gamma, h.dims, h.maps, h, twist, h.arrows)
        if msg:
            return "wrong", msg, 0
        for v in h.dims:
            if mm(h.pi[v], gamma[v], h.dims[v], h.dims[v]) != orc.q_scale(self.signs[v], h.pi[v]):
                return "wrong", f"framing equation fails at {v}", 0
            if not orc.full_rank_certified(orc.dense_rows(gamma[v]), h.dims[v]):
                return "wrong", f"not certified invertible at {v}", 0
        if self._certified is None:
            rows, total = orc.intertwining_rows(h.dims, h.maps, h.dims, h.maps, h.arrows,
                                                {a: twist for a, _, _ in h.arrows}, h.pi)
            self._certified = orc.full_rank_certified(rows, total)
        if not self._certified:
            return "wrong", "uniqueness not certified", 0
        for v in h.dims:
            cols = []
            for lam, basis in grading[v]:
                b = lists(basis)
                if mm(gamma[v], b, h.dims[v], basis.cols) != orc.q_scale(Fraction(lam), b):
                    return "wrong", f"grading space at {v} is not an eigenspace", 0
                cols.extend(zip(*b))
            spanned = orc.full_rank_certified(orc.dense_rows(cols), h.dims[v])
            if len(cols) != h.dims[v] or not spanned:
                return "wrong", f"eigenspaces do not split vertex {v}", 0
        return "ok", "", 1


class SelfExtensionJob:
    """The connecting automorphism between two projections of one hull."""

    def __init__(self, qg, rng, label: str, hull: HullData):
        from quivergrass.linalg import Mat

        self.name = f"self-extension {label}"
        self.hull = hull
        self.pi2 = admissible_projection(rng, hull.model)
        self.tau = {v: Mat.from_rows(qg.QQ, m, hull.dims[v]) for v, m in self.pi2.items()}
        self._qg = qg
        self._certified = None

    def run(self, traced: bool):
        return self._qg.extend_to_injective(self.hull.model.rep, self.tau, self.hull.model)

    def check(self, res):
        h = self.hull
        gamma = {v: lists(res.gamma[v]) for v in h.dims}
        msg = check_intertwiner(gamma, h.dims, h.maps, h, 1, h.arrows)
        if msg:
            return "wrong", msg, 0
        for v in h.dims:
            if mm(h.pi[v], gamma[v], h.dims[v], h.dims[v]) != self.pi2[v]:
                return "wrong", f"projection equation fails at {v}", 0
            for c in h.socle_cols[v]:
                if [row[c] for row in gamma[v]] != [int(r == c) for r in range(h.dims[v])]:
                    return "wrong", f"connecting map moves the socle at {v}", 0
            if not orc.full_rank_certified(orc.dense_rows(gamma[v]), h.dims[v]):
                return "wrong", f"connecting map not certified invertible at {v}", 0
        if not res.injective:
            return "wrong", "connecting map reported not injective", 0
        if self._certified is None:
            rows, total = orc.intertwining_rows(h.dims, h.maps, h.dims, h.maps, h.arrows, {}, h.pi)
            self._certified = orc.full_rank_certified(rows, total)
        if not self._certified:
            return "wrong", "uniqueness not certified", 0
        return "ok", "", 1


def extension_workload(qg, seed: int, smoke: bool) -> list:
    rng = random.Random(seed)
    hulls: dict = {}
    shapes = EXT_SHAPES[::6] if smoke else EXT_SHAPES
    jobs = [RandomExtensionJob(qg, rng, *shape, hulls)
            for _ in range(1 if smoke else EXT_DRAWS) for shape in shapes]
    allones = {}
    for label, n, _ in INDUCED:
        if label not in allones:
            q = qg.line_quiver(n) if n else qg.star_quiver(3)
            allones[label] = HullData(qg.injective_hull(q, {v: 1 for v in q.vertices}))
    induced = INDUCED[:1] if smoke else INDUCED
    jobs += [InducedJob(qg, rng, label, allones[label], z) for label, _, z in induced]
    big = "A3" if smoke else "A5"
    jobs.append(SelfExtensionJob(qg, rng, big, allones[big]))
    return jobs


# -- count ---------------------------------------------------------------------------

class A3CountJob:
    def __init__(self, qg, q, w, v: tuple, mult: int, oracle: dict, primes):
        self.name = f"count_polynomial A3 v={v}"
        self.v = dict(zip(q.vertices, v))
        self.q, self.w, self.mult, self.primes = q, w, mult, list(primes)
        self.oracle = {int(p): n for p, n in oracle.items()}
        self._qg = qg

    def run(self, traced: bool):
        return self._qg.count_polynomial(self.q, self.w, self.v, self.primes)

    def check(self, poly):
        under, over = [], []
        for p, n in poly.counts:
            want = self.oracle.get(p)
            if want is None:
                return "wrong", f"counted at an unexpected prime {p}", 0
            if n < want:
                under.append(f"p={p}: {n} vs {want}")
            elif n > want:
                over.append(f"p={p}: {n} vs {want}")
        if poly.leading < self.mult:
            under.append(f"leading {poly.leading} vs multiplicity {self.mult}")
        elif poly.leading > self.mult:
            over.append(f"leading {poly.leading} vs multiplicity {self.mult}")
        points = sum(n for _, n in poly.counts)
        if over:
            return "wrong", "; ".join(over + under), points
        if under:
            return "p0", "; ".join(under), points
        want = orc.lagrange([(p, self.oracle[p]) for p in poly.primes_used])
        if list(poly.coeffs) != want:
            return "wrong", f"polynomial {poly.coeffs} vs {want}", points
        return "ok", "", points


class A4CountJob:
    def __init__(self, qg, rep_p, q, v: tuple, p: int, oracle: int):
        self.name = f"count_submodules A4 v={v} mod {p}"
        self.v = dict(zip(q.vertices, v))
        self.rep_p, self.oracle = rep_p, oracle
        self._qg = qg

    def run(self, traced: bool):
        return self._qg.count_submodules(self.rep_p, self.v)

    def check(self, n):
        if n < self.oracle:
            return "p0", f"{n} vs {self.oracle}", n
        if n > self.oracle:
            return "wrong", f"{n} vs {self.oracle}", n
        return "ok", "", n


SMOKE_A3 = ((0, 1, 1), (1, 1, 1), (1, 2, 2))


def count_workload(qg, seed: int, smoke: bool) -> list:
    table = orc.load_counts()
    q3, q4 = qg.line_quiver(3), qg.line_quiver(4)
    w3, w4 = ({v: 1 for v in q.vertices} for q in (q3, q4))
    census = qg.weight_census(q3, w3)
    cached = {tuple(map(int, k.split(","))): c for k, c in table["a3"].items()}
    if set(census) != set(cached):
        raise RuntimeError("the A3 weight census no longer matches the cached oracle table")
    rep2 = qg.reduce_mod(qg.injective_hull(q4, w4).rep, table["a4_prime"])
    a3 = SMOKE_A3 if smoke else sorted(cached)
    jobs = [A3CountJob(qg, q3, w3, v, census[v], cached[v], table["a3_primes"]) for v in a3]
    a4 = sorted(table["a4"])[:1] if smoke else sorted(table["a4"])
    p = table["a4_prime"]
    jobs += [A4CountJob(qg, rep2, q4, tuple(map(int, k.split(","))), p, table["a4"][k][str(p)])
             for k in a4]
    return jobs


# -- cli -------------------------------------------------------------------------------

TRACE_TAG = "PERFBENCH-TRACE "
CRITERION_LINE = re.compile(r"^criterion (\d\d) (PASS|FAIL) ")


def child_env() -> dict:
    env = dict(os.environ)
    extra = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + extra)
    return env


def spawn(argv: list, tag: str, extra_env: dict | None = None) -> dict:
    """Run a child to completion; its output goes through files under OUT.

    os.wait4 gives the child's own peak RSS, which subprocess does not.
    """
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                cwd=ROOT, env={**child_env(), **(extra_env or {})})
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "stdout": out_path.read_text(encoding="utf-8"),
            "stderr": err_path.read_text(encoding="utf-8"), "maxrss_kib": usage.ru_maxrss}


def rational(x) -> Fraction:
    return Fraction(x) if isinstance(x, (int, str)) else Fraction(str(x))


def relation_holds(rep: dict) -> bool:
    """Sum over arrows into x of sign(a) x_a x_abar vanishes at every vertex."""
    quiver, dims = rep["quiver"], rep["dims"]
    maps = {k: [[rational(x) for x in row] for row in m] for k, m in rep["maps"].items()}
    base = set(quiver["base"])
    for x in quiver["vertices"]:
        acc = [[Fraction(0)] * dims[x] for _ in range(dims[x])]
        for a in quiver["arrows"]:
            if a["to"] != x:
                continue
            term = mm(maps[a["name"]], maps[quiver["bar"][a["name"]]], dims[a["from"]], dims[x])
            sign = 1 if a["name"] in base else -1
            acc = [[u + sign * t for u, t in zip(r, s)] for r, s in zip(acc, term)]
        if any(any(r) for r in acc):
            return False
    return True


class CliJob:
    def __init__(self, args: list, checker, quivers: dict, table: dict):
        self.args = args
        self.name = "cli " + " ".join(args)
        self.checker = checker
        self.quiver = quivers.get(args[1])
        self.table = table
        self.argv = [str(INPUTS / a) if a.endswith(".json") else a for a in args]
        self.tag = re.sub(r"[^A-Za-z0-9]+", "_", " ".join(args)).strip("_")

    def run(self, traced: bool):
        extra = None
        if traced:
            argv = [sys.executable, str(HERE / "cli_shim.py"), *self.argv]
            extra = {"PERFBENCH_SPAWN": repr(time.monotonic()),
                     "PERFBENCH_SPANS": str(OUT / f"cli-{self.tag}.spans")}
        else:
            argv = [sys.executable, "-m", "quivergrass.cli", *self.argv]
        res = spawn(argv, "cli-" + self.tag, extra)
        res["trace"] = None
        lines = res["stderr"].splitlines()
        if lines and lines[-1].startswith(TRACE_TAG):
            res["trace"] = json.loads(lines[-1][len(TRACE_TAG):])
            res["stderr"] = "\n".join(lines[:-1])
        return res

    def check(self, res):
        if res["rc"] != 0:
            return "wrong", f"exit code {res['rc']}: {res['stderr'][-300:]}", 0
        try:
            out = json.loads(res["stdout"])
        except json.JSONDecodeError as exc:
            return "wrong", f"stdout is not JSON: {exc}", 0
        msg = self.checker(self, out, res["stderr"])
        return ("wrong", msg, 0) if msg else ("ok", "", 1)


def check_classify(job, out, err):
    c = orc.cartan(job.quiver)
    want = {"kind": orc.cartan_kind(c), "label": orc.dynkin_label(c)}
    return "" if out == want else f"{out} vs {want}"


def check_ppalg(job, out, err):
    c = orc.cartan(job.quiver)
    degrees = int(job.args[-1])
    if orc.cartan_kind(c) == "finite":
        total = orc.preprojective_total(orc.dynkin_label(c))
        ok = len(out) == degrees + 1 and min(out) >= 0 and sum(out) == total
        return "" if ok else f"{out} does not total {total}"
    want = orc.preprojective_series(c, degrees)
    return "" if out == want else f"{out} vs {want}"


def check_module(job, out, err):
    c = orc.cartan(job.quiver)
    rep = out["rep"]
    total = orc.preprojective_total(orc.dynkin_label(c))
    if sum(rep["dims"].values()) != total:
        return f"total dimension {sum(rep['dims'].values())} vs {total}"
    if not relation_holds(rep):
        return "preprojective relation fails"
    if job.args[0] == "injective":
        for v, cols in out["socle"]["columns"].items():
            proj = out["projection"][v]
            for r, col in enumerate(cols):
                column = [rational(row[col]) for row in proj]
                if column != [int(i == r) for i in range(len(proj))]:
                    return f"projection is not the identity on the socle at {v}"
    return ""


def check_demazure(job, out, err):
    qobj = job.quiver
    verts = qobj["vertices"]
    c = orc.cartan(qobj)
    w = [int(x) for x in job.args[job.args.index("--w") + 1].split(",")]
    word = [verts.index(x) for x in job.args[job.args.index("--word") + 1].split()]
    want = orc.demazure_targets(c, w, word)
    stages = out["stages"]
    got = [tuple(s["dims"][v] for v in verts) for s in stages]
    if got != want:
        return f"stage dims {got} vs {want}"
    for prev, cur in zip(stages, stages[1:]):
        for v in verts:
            b_prev = [[rational(x) for x in r] for r in prev["subrep"]["bases"][v]]
            b_cur = [[rational(x) for x in r] for r in cur["subrep"]["bases"][v]]
            k = cur["subrep"]["dims"][v]
            joined = [p + q for p, q in zip(b_prev, b_cur)]
            if k != cur["dims"][v] or orc.q_rank(b_cur) != k or orc.q_rank(joined) != k:
                return f"stages are not nested bases at {v}"
    return ""


def _a3_oracle_poly(job):
    counts = {int(p): n for p, n in job.table["a3"]["1,1,1"].items()}
    return counts, orc.lagrange([(p, counts[p]) for p in sorted(counts)[:3]])


def check_count(job, out, err):
    counts, poly = _a3_oracle_poly(job)
    if [[p, counts[p]] for p, _ in out["counts"]] != out["counts"]:
        return f"counts {out['counts']} vs oracle {counts}"
    want = [int(x) for x in orc.lagrange([(p, counts[p]) for p in out["interpolation_primes"]])]
    if out["polynomial"] != want or out["chi"] != sum(want) or out["leading"] != want[-1]:
        return f"polynomial {out['polynomial']} vs {want}"
    return ""


def check_weightmult(job, out, err):
    counts, poly = _a3_oracle_poly(job)
    if any(sum(c * p**k for k, c in enumerate(poly)) != n for p, n in counts.items()):
        return "oracle counts are not one quadratic"
    return "" if out == poly[-1] else f"{out} vs leading coefficient {poly[-1]}"


def check_rep_matrices(job, out, err):
    c = orc.cartan(job.quiver)
    w = [int(x) for x in job.args[job.args.index("--w") + 1].split(",")]
    n = orc.weyl_dimension(c, w)
    if len(out["points"]) != n:
        return f"{len(out['points'])} points vs Weyl dimension {n}"

    def prod(a, b):
        return [[sum(x * y for x, y in zip(r, col)) for col in zip(*b)] for r in a]

    for i in out["E"]:
        for j in out["F"]:
            ef, fe = prod(out["E"][i], out["F"][j]), prod(out["F"][j], out["E"][i])
            comm = [[x - y for x, y in zip(r, s)] for r, s in zip(ef, fe)]
            want = out["H"][i] if i == j else [[0] * n for _ in range(n)]
            if comm != want:
                return f"[E_{i}, F_{j}] is wrong"
    return ""


def check_chevalley(job, out, err):
    ok = out["passed"] is True and all(item["passed"] for item in out["items"])
    return "" if ok else "comparison report did not pass"


def check_verify(job, out, err):
    lines = [ln for ln in err.splitlines() if ln.strip()]
    marks = [CRITERION_LINE.match(ln) for ln in lines]
    if len(lines) != 12 or not all(m and m.group(2) == "PASS" for m in marks):
        return f"expected twelve PASS lines, got {lines[:14]}"
    if [int(m.group(1)) for m in marks] != list(range(1, 13)):
        return "criteria out of order"
    ok = out["passed"] is True and len(out["results"]) == 12
    return "" if ok else "verify report did not pass"


CLI_JOBS = [
    (["classify", "a3.json"], check_classify),
    (["classify", "d4.json"], check_classify),
    (["classify", "kronecker.json"], check_classify),
    (["ppalg-dims", "a3.json", "--max-len", "6"], check_ppalg),
    (["ppalg-dims", "d4.json", "--max-len", "8"], check_ppalg),
    (["ppalg-dims", "kronecker.json", "--max-len", "4"], check_ppalg),
    (["injective", "a3.json", "--socle", "1,1,1"], check_module),
    (["injective", "d4.json", "--socle", "1,1,1,1"], check_module),
    (["projective", "a3.json", "--w", "1,1,1"], check_module),
    (["projective", "d4.json", "--w", "1,1,1,1"], check_module),
    (["demazure", "a3.json", "--w", "1,1,1", "--word", "1 2 1 3 2 1"], check_demazure),
    (["demazure", "d4.json", "--w", "1,1,1,1", "--word", "0 1 2 3 0"], check_demazure),
    (["count", "a3.json", "--w", "1,1,1", "--v", "1,1,1", "--primes", "2,3,5,7"], check_count),
    (["weightmult", "a3.json", "--w", "1,1,1", "--v", "1,1,1"], check_weightmult),
    (["rep-matrices", "a3.json", "--w", "0,1,0"], check_rep_matrices),
    (["rep-matrices", "d4.json", "--w", "0,1,0,0"], check_rep_matrices),
    (["chevalley", "a3.json", "--w", "0,1,0"], check_chevalley),
    (["chevalley", "d4.json", "--w", "0,1,0,0"], check_chevalley),
    (["verify", "core"], check_verify),
]
SMOKE_CLI = (0, 12, 13)


def cli_workload(qg, seed: int, smoke: bool) -> list:
    quivers = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in INPUTS.glob("*.json")}
    table = orc.load_counts()
    picked = [CLI_JOBS[i] for i in SMOKE_CLI] if smoke else CLI_JOBS
    jobs = [CliJob(args, checker, quivers, table) for args, checker in picked]
    warm = spawn([sys.executable, "-m", "quivergrass.cli", "classify", str(INPUTS / "a3.json")],
                 "cli-warmup")
    if warm["rc"] != 0:
        raise RuntimeError(f"the command line does not start: {warm['stderr'][-300:]}")
    return jobs


WORKLOADS = {"extension": extension_workload, "count": count_workload, "cli": cli_workload}
