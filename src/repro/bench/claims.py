"""The reproduction scorecard: every claim the modeled suite makes, as data.

Each :class:`Claim` is one statement about the *shape* of a paper table or
figure (who wins, where a lead shrinks, where a crossover falls) or one bound
the repo holds its own artifacts to, with a predicate over the flat ``{metric
key: value}`` dict of a run.  :func:`evaluate` has two callers: ``runner.main``
on what it just ran (exit 1 on a violated claim) and one tier-1 test on the
committed quick baseline.  A claim is ``n/a`` only when *none* of the keys it
names is in the dict — a partial artifact list, or coordinates only the
full-size panel carries; a panel present but one-sided or empty fails.
Patterns use ``*`` for one ``/``-free panel coordinate; a series runs along
its *last* wildcard in numeric order (``batch=2^10``, ``lf=0.7``).
"""

import re
from collections import namedtuple

__all__ = ["Claim", "CLAIMS", "evaluate"]

#: ``keys``: the patterns ``check(metrics) -> (holds, observed)`` reads; they decide n/a.
Claim = namedtuple("Claim", "id source statement paper keys check")
Verdict = namedtuple("Verdict", "claim status observed")  # pass / fail / n/a


def _panel(m: dict, pattern: str) -> dict:
    """``{coordinates: value}`` of the keys matching ``pattern``."""
    rx = re.compile(re.escape(pattern).replace(r"\*", "([^/]+)") + "$")
    return {mo.groups(): v for k, v in m.items() if (mo := rx.match(k))}


def _ratios(m: dict, num: str, den: str) -> dict:
    """``num / den`` at every coordinate of the sparser of the two series (faimGraph
    is not measured past its batch limit); the other must cover all of them."""
    top, bottom = _panel(m, num), _panel(m, den)
    return {c: top[c] / bottom[c] for c in min(top, bottom, key=len)}


def _series(panel: dict) -> list:
    """The panel's value lists along the last coordinate, one list per series:
    ``("ef=16", "lf=0.7")`` sorts at 0.7 within ``ef=16``, ``("batch=2^10",)`` at 10."""
    series: dict = {}
    for c in sorted(
        panel, key=lambda c: (c[:-1], float(c[-1].split("=")[-1].removeprefix("2^")))
    ):
        series.setdefault(c[:-1], []).append(panel[c])
    return list(series.values())


def above(num: str, den: str, k: float = 1.0, only: tuple = ()):
    """``num > k·den`` at every coordinate measured (among ``only``, if given)."""

    def check(m):
        low = min(v for c, v in _ratios(m, num, den).items() if not only or c[0] in only)
        return low > k, f"min {low:.2f}x"

    return tuple(p.replace("*", n, 1) for n in only or ("*",) for p in (num, den)), check


def bounded(pattern: str, lo: float):
    """``value ≥ lo`` for every key matching ``pattern``."""

    def check(m):
        v = _panel(m, pattern).values()
        return lo <= min(v), f"{min(v):.2f}..{max(v):.2f}"

    return (pattern,), check


def falls(num: str, den: str = "", by: float = 1.0):
    """Every series of ``num`` (over ``den``) starts more than ``by``x above its end."""

    def check(m):
        series = _series(_ratios(m, num, den) if den else _panel(m, num))
        s = min(series, key=lambda s: s[0] / s[-1])
        return s[0] > by * s[-1], f"{s[0]:.4g} → {s[-1]:.4g}"

    return ((num, den) if den else (num,)), check


def rises(num: str, dip: float = float("inf")):
    """Every series of ``num`` ends above its start, no step down by more than ``dip``."""

    def check(m):
        series = _series(_panel(m, num))
        s = min(series, key=lambda s: s[-1] / s[0])
        steps_ok = all(b >= a - dip for s in series for a, b in zip(s, s[1:]))
        return s[-1] > s[0] and steps_ok, f"{s[0]:.4g} → {s[-1]:.4g}"

    return (num,), check


def both(*parts):
    """Conjunction; observes the first part that fails, else the first part."""

    def check(m):
        results = [c(m) for _, c in parts]
        failed = [r for r in results if not r[0]]
        return not failed, (failed or results)[0][1]

    return tuple(k for keys, _ in parts for k in keys), check


def _t7_hornet_ahead(m):
    r = _ratios(m, "t7/*/ours", "t7/*/hornet").values()
    ahead = sum(v > 1 for v in r)
    return bool(r) and ahead >= len(r) - 1, f"{ahead} of {len(r)}"


def _f2_chain_span(m):
    chains = _panel(m, "f2/*/*/chain").values()
    return min(chains) < 0.5 and max(chains) > 1.5, f"{min(chains):.2f}..{max(chains):.2f}"


def _f3_optimum(m):
    tc = _panel(m, "f3/*/*/tc")
    best = {ef: min((v, lf) for (e, lf), v in tc.items() if e == ef)[1] for ef, _ in tc}
    worst = max(float(lf.split("=")[1]) for lf in best.values())
    return worst <= 1.0, f"argmin lf ≤ {worst:g}"


_ROADS, _HEAVY = ("luxembourg_osm", "germany_osm", "road_usa"), ("soc-orkut", "hollywood-2009")
_T3, _T11 = "t3/batch=2^10/", "t11/insert-heavy-2^18/*/"
# fmt: off
#: Every claim the suite makes, in artifact order.
CLAIMS = (
    Claim("t2-order", "paper Table II", "insertion: ours > faimGraph > Hornet at every batch", "",
          *both(above("t2/*/ours", "t2/*/hornet"), above("t2/*/ours", "t2/*/faimgraph"),
                above("t2/*/faimgraph", "t2/*/hornet"))),
    Claim("t2-lead-shrinks", "paper Table II", "ours/Hornet insertion lead shrinks as batches grow",
          "14.8x → 5.8x", *falls("t2/*/ours", "t2/*/hornet")),
    Claim("t3-small-batch-lead", "paper Table III", "delete, smallest batch: ours > 3x both lists",
          "640 vs 92 MEdge/s", *both(above(_T3 + "ours", _T3 + "hornet", 3),
                                     above(_T3 + "ours", _T3 + "faimgraph", 3))),
    Claim("t3-hornet-parity", "paper Table III", "delete, largest batch: Hornet within 2x of ours",
          "1,015 vs 1,025 MEdge/s", *above("t3/batch=2^16/hornet", "t3/batch=2^16/ours", 0.5)),
    Claim("t3-faimgraph-behind", "paper Table III", "deletion: faimGraph never catches ours", "",
          *above("t3/*/ours", "t3/*/faimgraph")),
    Claim("t4-order", "paper Table IV", "vertex deletion: ours > faimGraph at every batch size",
          "8.9–12.2x", *above("t4/*/ours", "t4/*/faimgraph")),
    Claim("t4-rises", "paper Table IV", "vertex deletion rate rises with batch size, both", "",
          *both(rises("t4/*/ours"), rises("t4/*/faimgraph"))),
    Claim("t5-bulk-build", "paper Table V", "bulk build: ours > 2x faster than Hornet everywhere",
          "2–30x", *above("t5/*/hornet", "t5/*/ours", 2)),
    Claim("t6-incremental", "paper Table VI", "incremental build: ours > 2x Hornet at every batch",
          "~5x mean", *above("t6/*/ours", "t6/*/hornet", 2)),
    Claim("t7-hornet-ahead", "paper Table VII", "static TC: Hornet ahead on all but ≤ 1 dataset",
          "ours 1.1–10x slower", ("t7/*/ours", "t7/*/hornet"), _t7_hornet_ahead),
    Claim("t7-within-20x", "paper Table VII", "static TC: ours never 20x slower than Hornet",
          "max ≈ 10x (ldoor)", *above("t7/*/hornet", "t7/*/ours", 1 / 20)),
    Claim("t8-road", "paper Table VIII", "road networks: CSR segmented sort > 5x faimGraph's sort",
          "58 vs 0.07 ms", *above("t8/*/csr", "t8/*/faimgraph", 5, only=_ROADS)),
    Claim("t8-heavy-tailed", "paper Table VIII", "heavy-tailed: faimGraph's page sort loses to CSR",
          "41.8 vs 1.4 s", *above("t8/*/faimgraph", "t8/*/csr", only=_HEAVY)),
    Claim("t9-road", "paper Table IX", "dynamic TC, road-like graph: ours ahead of Hornet",
          "1.8x", *above("t9/road_usa/hornet_total", "t9/road_usa/ours_total")),
    Claim("t9-hollywood", "paper Table IX", "dynamic TC, hollywood-like graph: Hornet stays ahead",
          "0.89–0.91x", *above("t9/hollywood-2009/ours_total", "t9/hollywood-2009/hornet_total")),
    Claim("f2a-insert-falls", "paper Figure 2a", "insert rate falls > 1.2x, sparse → long chains",
          "~2.5x", *falls("f2/*/*/insert", by=1.2)),
    Claim("f2b-util-rises", "paper Figure 2b", "memory utilization rises, no step down > 0.02", "",
          *rises("f2/*/*/util", dip=0.02)),
    Claim("f2c-memory-falls", "paper Figure 2c", "memory usage falls as the load factor grows", "",
          *falls("f2/*/*/mem")),
    Claim("f2-chain-span", "paper Figure 2", "sweep spans sparse (< 0.5) to chained (> 1.5) tables",
          "up to ~5", ("f2/*/*/chain",), _f2_chain_span),
    Claim("f3-long-chains-slow", "paper Figure 3", "TC at load factor 5 is slower than at 0.7", "",
          *above("f3/*/lf=5/tc", "f3/*/lf=0.7/tc")),
    Claim("f3-optimum", "paper Figure 3", "best TC load factor is ≤ 1.0, never in the long chains",
          "≈ 0.7", ("f3/*/*/tc",), _f3_optimum),
    Claim("t11-incremental", "repo t11", "insert-heavy 2^18-edge runs: incremental ≥ 3x cheaper "
          "than full recompute, in aggregate and for tc / bfs / kcore / sssp alone", "",
          *both(*(bounded(_T11 + a + "speedup", lo=3) for a in ("", "tc_", "bfs_", "kcore_")),
                bounded("t11/insert-heavy-w-2^18/*/sssp_speedup", lo=3))),
)
# fmt: on


def evaluate(metrics: dict) -> list:
    """One :class:`Verdict` per claim, in :data:`CLAIMS` order."""
    verdicts = []
    for claim in CLAIMS:
        status, observed = "n/a", "—"
        if any(_panel(metrics, p) for p in claim.keys):
            try:
                ok, observed = claim.check(metrics)
            except (KeyError, ValueError, ZeroDivisionError) as exc:  # one-sided / empty panel
                ok, observed = False, f"incomplete panel: {exc}"
            status = "pass" if ok else "fail"
        verdicts.append(Verdict(claim, status, observed))
    return verdicts
