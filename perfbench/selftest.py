"""Self-test of the benchmark: oracle sanity checks and a smoke run of each workload.

    python3 perfbench/selftest.py

The oracle checks compare the independent counter and closed forms with
values known without the library. The smoke runs use tiny job lists
(--smoke) with tracing off and on, and check that the result line carries
exactly the metrics BENCHMARK.json declares. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402


def expect(cond: bool, what) -> None:
    if not cond:
        raise SystemExit(f"selftest failed: {what}")


def gaussian_binomial(n: int, k: int, p: int) -> int:
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    return num // den


def check_oracles() -> None:
    # With zero arrow maps every graded subspace is a submodule.
    dims = {"1": 3, "2": 2}
    arrows = [("a", "1", "2"), ("a*", "2", "1")]
    zero = {"a": [[0] * 3 for _ in range(2)], "a*": [[0] * 2 for _ in range(3)]}
    for p in (2, 3):
        got = orc.count_submodules(dims, arrows, zero, p, {"1": 1, "2": 1})
        expect(got == gaussian_binomial(3, 1, p) * gaussian_binomial(2, 1, p), got)
    # An isomorphism 1 -> 2 forces the subspace at 2 to be the image.
    ident = {"a": [[1, 0], [0, 1]], "a*": [[0, 0], [0, 0]]}
    got = orc.count_submodules({"1": 2, "2": 2}, arrows, ident, 3, {"1": 1, "2": 1})
    expect(got == gaussian_binomial(2, 1, 3), got)
    expect(orc.lagrange([(2, 23), (3, 46), (5, 116)]) == [1, 3, 4], "lagrange")
    a3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    expect((orc.cartan_kind(a3), orc.dynkin_label(a3)) == ("finite", "A3"), "classification")
    expect(orc.preprojective_total("A3") == 10 and orc.preprojective_total("D4") == 28,
           "preprojective totals")
    expect(orc.weyl_dimension(a3, [1, 1, 1]) == 64 and orc.weyl_dimension(a3, [0, 1, 0]) == 6,
           "Weyl dimension formula")
    expect(orc.demazure_targets(a3, [1, 1, 1], [0, 1, 0, 2, 1, 0])[-1] == (3, 4, 3),
           "Demazure targets of the longest word")
    expect(orc.preprojective_series([[2, -2], [-2, 2]], 3) == [2, 4, 6, 8], "Kronecker series")
    expect(orc.rank_mod([{0: 1, 1: 2}, {0: 2, 1: 4}], orc.CERT_PRIMES[0]) == 1, "rank mod p")
    expect(orc.q_rank([[1, 2], [3, 4]]) == 2, "rank over Q")
    print("oracles ok")


def check_smoke(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, want in ((0, e2e), (1, layer)):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "7",
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            expect(proc.returncode == 0, proc.stderr[-800:])
            res = json.loads(proc.stdout.splitlines()[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys())
            expect(res["correct"] is True and res["attempted"] >= 1, res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, sorted(set(got) ^ set(want)))
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"])
            print(f"smoke {w['name']} trace {trace}: {res['failed']}/{res['attempted']} failed")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_oracles()
    check_smoke(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
