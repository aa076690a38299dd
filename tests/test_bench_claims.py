"""The reproduction scorecard (``repro.bench.claims``).

``evaluate`` is exercised on synthetic metric dicts (a broken ordering
fails, absent keys are n/a, a one-sided panel fails rather than n/a) and
on the committed quick baseline, where every decidable claim must hold and
the set of undecidable ones is pinned — so a renamed metric key cannot
silently retire a claim.  The same baseline pins the persistence rule: a
metric is read by a claim or is a column of the paper table or figure
series its artifact reproduces (``UNCLAIMED``), nothing else.
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench.claims import CLAIMS, evaluate
from repro.bench.runner import baseline_path

DOCS = Path(__file__).resolve().parent.parent / "docs" / "benchmarks.md"

#: Claims whose coordinates only the full-size panel carries.
FULL_SIZE_ONLY = {"t3-hornet-parity", "t8-heavy-tailed", "t9-road", "t9-hollywood"}

#: Persisted metrics no claim reads, ``pattern -> why it is persisted``: a
#: column of the paper table or figure its artifact reproduces, or a named
#: ROADMAP target.  ``*`` is one ``/``-free coordinate, as in ``CLAIMS``.
UNCLAIMED = {
    "t3/*/hornet": "paper Table III, Hornet column (claims read its 2^10 / 2^16 rows)",
    "t7/*/faimgraph": "paper Table VII, faimGraph column",
    "t7/*/triangles": "paper Table VII, triangle-count column",
    "t8/*/csr": "paper Table VIII, Sort CSR column (claims read road / heavy-tailed rows)",
    "t8/*/faimgraph": "paper Table VIII, Sort faimGraph column",
    "t9/*/ours_total": "paper Table IX, our cumulative insert + TC time",
    "t9/*/hornet_total": "paper Table IX, Hornet's cumulative insert + sort + TC time",
    "t9/*/speedup": "paper Table IX, speedup column (claims read road_usa / hollywood)",
    "t9/*/triangles": "paper Table IX, triangle count both paths must agree on",
    "f3/*/*/chain": "paper Figure 3, x-axis (average chain length)",
    "t11/insert-heavy-2^18/*/pagerank_speedup": "ROADMAP item 7 (incremental PageRank)",
}


def statuses(metrics):
    return {v.claim.id: v.status for v in evaluate(metrics)}


@pytest.fixture(scope="module")
def baseline():
    doc = json.loads(baseline_path(quick=True).read_text())
    return {r["metric"]: r["value"] for art in doc["artifacts"] for r in art["results"]}


def table2(hornet=(50, 80, 150), faimgraph=(150, 160), ours=(700, 1300, 1800)):
    batches = ("2^10", "2^12", "2^14")
    rows = {"hornet": hornet, "faimgraph": faimgraph, "ours": ours}
    return {
        f"t2/batch={b}/{name}": float(v)
        for name, vals in rows.items()
        for b, v in zip(batches, vals)
    }


def table11(**speedups):
    """Every series ``t11-incremental`` reads, at one value per backend."""
    series = ("speedup", "tc_speedup", "bfs_speedup", "kcore_speedup")
    heavy = {f"t11/insert-heavy-2^18/{b}/{a}": v for b, v in speedups.items() for a in series}
    return heavy | {f"t11/insert-heavy-w-2^18/{b}/sssp_speedup": v for b, v in speedups.items()}


class TestEvaluate:
    def test_one_verdict_per_claim_in_order(self):
        verdicts = evaluate({})
        assert [v.claim for v in verdicts] == list(CLAIMS)
        assert {v.status for v in verdicts} == {"n/a"}
        assert len({c.id for c in CLAIMS}) == len(CLAIMS)

    def test_paper_shape_holds(self):
        got = statuses(table2())
        assert got["t2-order"] == got["t2-lead-shrinks"] == "pass"
        assert got["t3-faimgraph-behind"] == "n/a"  # no t3 key at all

    def test_broken_ordering_fails(self):
        # faimGraph overtakes ours at one batch size only.
        assert statuses(table2(faimgraph=(150, 1400)))["t2-order"] == "fail"
        # Hornet ahead of faimGraph.
        assert statuses(table2(hornet=(200, 80, 150)))["t2-order"] == "fail"

    def test_growing_lead_fails_the_trend(self):
        got = statuses(table2(ours=(700, 1300, 3000)))
        assert got["t2-order"] == "pass" and got["t2-lead-shrinks"] == "fail"

    def test_series_follow_the_numeric_coordinate_not_the_key_order(self):
        metrics = dict(reversed(table2().items()))
        metrics |= {"t2/batch=2^9/hornet": 40.0, "t2/batch=2^9/ours": 720.0}  # 18x, first
        assert statuses(metrics)["t2-lead-shrinks"] == "pass"

    def test_one_sided_panel_fails_rather_than_na(self):
        only_ours = {k: v for k, v in table2().items() if k.endswith("/ours")}
        assert statuses(only_ours)["t2-order"] == "fail"
        missing_one = table2()
        del missing_one["t2/batch=2^12/ours"]
        verdict = next(v for v in evaluate(missing_one) if v.claim.id == "t2-order")
        assert verdict.status == "fail" and "incomplete panel" in verdict.observed

    def test_named_coordinates_decide_na(self):
        road = {"t8/luxembourg_osm/csr": 1.8, "t8/luxembourg_osm/faimgraph": 0.03}
        got = statuses(road)
        assert got["t8-road"] == "pass" and got["t8-heavy-tailed"] == "n/a"
        assert statuses({"t8/soc-orkut/csr": 1.9})["t8-heavy-tailed"] == "fail"  # one-sided

    def test_bounds_are_inclusive_and_cover_every_backend(self):
        assert statuses(table11(slabhash=3.0))["t11-incremental"] == "pass"
        got = statuses(table11(slabhash=5.0, hornet=2.9))
        assert got["t11-incremental"] == "fail"
        # A 0.0 value is a value: it fails its bound, it is not "missing".
        zero = table11(slabhash=5.0) | {"t11/insert-heavy-2^18/slabhash/tc_speedup": 0.0}
        assert statuses(zero)["t11-incremental"] == "fail"


class TestBaseline:
    """The committed quick baseline, evaluated at zero bench cost."""

    @pytest.fixture(scope="class")
    def verdicts(self, baseline):
        return {v.claim.id: v for v in evaluate(baseline)}

    @pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
    def test_claim_holds(self, verdicts, claim):
        verdict = verdicts[claim.id]
        assert verdict.status != "fail", (claim.statement, verdict.observed)

    def test_undecidable_claims_are_exactly_the_full_size_ones(self, baseline):
        got = statuses(baseline)
        assert {cid for cid, status in got.items() if status == "n/a"} == FULL_SIZE_ONLY

    def test_breaking_one_metric_fails_exactly_that_claim(self, baseline):
        broken = dict(baseline) | {"t11/insert-heavy-2^18/hornet/kcore_speedup": 2.9}
        failed = {cid for cid, status in statuses(broken).items() if status == "fail"}
        assert failed == {"t11-incremental"}


def _matches(pattern: str, keys) -> set:
    rx = re.compile(re.escape(pattern).replace(r"\*", "[^/]+") + "$")
    return {k for k in keys if rx.match(k)}


class TestPersistenceRule:
    """Every persisted quick metric backs a claim or a paper cell; like
    ``tools/unused_public.py``, a stale ``UNCLAIMED`` entry fails too."""

    @pytest.fixture(scope="class")
    def unread(self, baseline):
        return set(baseline) - {k for c in CLAIMS for p in c.keys for k in _matches(p, baseline)}

    def test_every_metric_is_claimed_or_a_paper_cell(self, unread):
        listed = {k for pattern in UNCLAIMED for k in _matches(pattern, unread)}
        assert sorted(unread - listed) == []

    def test_every_unclaimed_entry_covers_an_unread_metric(self, unread):
        assert [p for p in UNCLAIMED if not _matches(p, unread)] == []

    def test_reasons_name_a_paper_artifact_or_a_roadmap_item(self):
        rx = re.compile(r"^(paper (Table [IVX]+|Figure \d)|ROADMAP item \d+)\b")
        assert [p for p, why in UNCLAIMED.items() if not rx.match(why)] == []


def scorecard_rows(text: str) -> list:
    """The claim ids of the scorecard table in ``text``, in row order."""
    table = text[text.index("| Claim | Source |") :].split("\n\n")[0]
    return re.findall(r"^\| `([^`]+)` \|", table, flags=re.M)


def test_every_claim_is_documented():
    """The scorecard table of ``docs/benchmarks.md`` lists exactly ``CLAIMS``."""
    assert scorecard_rows(DOCS.read_text()) == [c.id for c in CLAIMS]


@pytest.mark.parametrize(
    "stale", ["t12-shard-scaling", "t13-recovery", "t14-rebuild", "t14-degraded-read"]
)
def test_a_row_of_a_deleted_claim_fails_the_doc_check(stale):
    """The check runs both ways: a row for a claim ``CLAIMS`` no longer
    holds (one of the retired repo-grown claims) is caught."""
    text = DOCS.read_text()
    last = [line for line in text.splitlines() if line.startswith(f"| `{CLAIMS[-1].id}` |")]
    assert len(last) == 1
    row = f"| `{stale}` | repo-grown | retired | - |"
    rows = scorecard_rows(text.replace(last[0], f"{last[0]}\n{row}"))
    assert stale not in {c.id for c in CLAIMS}
    assert rows != [c.id for c in CLAIMS] and rows[-1] == stale
