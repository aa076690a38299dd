"""Machine-readable benchmark results with a versioned JSON schema.

Every bench artifact (Tables II-IX, Figures 2-3, the repo-grown tables)
produces an :class:`ArtifactResult`: the human-facing tabular view
(``headers``/``rows``, rendered at the edge by
:func:`repro.bench.harness.format_table`) plus a flat list of
:class:`BenchResult` metric records — one per measured value, each keyed by
a stable ``metric`` string and carrying the modeled-device seconds and
kernel-counter deltas behind it.  A whole run is a :class:`SuiteResult`,
which adds the environment fingerprint (git SHA, python/numpy versions,
platform, seed) that makes two JSON files comparable.

The JSON layout is versioned via ``schema_version``; :func:`validate_suite`
rejects documents this code cannot interpret, so a stale baseline fails
loudly instead of comparing garbage.  Every persisted number derives from
the deterministic device model (kernel counters) — no host time is
recorded — so a results file is a pure function of code, seed and NumPy
version, and committed baselines are stable across host machines.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.bench.harness import BenchRecord
from repro.util.errors import ValidationError

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "BenchResult",
    "ArtifactResult",
    "ArtifactBuilder",
    "SuiteResult",
    "environment_fingerprint",
    "validate_suite",
]

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1

#: Discriminator so unrelated JSON files are rejected early.
SUITE_KIND = "repro-bench-suite"


class SchemaError(ValidationError):
    """A results document does not conform to the versioned schema."""


def metric_key(artifact: str, *parts) -> str:
    """Stable ``/``-joined metric identifier, e.g. ``t2/batch=2^10/ours``."""
    return "/".join([artifact, *map(str, parts)])


def _jsonable(value):
    """Coerce NumPy scalars/arrays into plain-JSON values (recursively)."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class BenchResult:
    """One measured metric: a value plus the measurement behind it.

    ``value`` is the number the paper-shaped table displays (device-model
    derived, deterministic for a fixed seed); ``model_seconds`` /
    ``counters`` record the underlying measurement for
    the cells that correspond to a single timed call (aggregated cells sum
    them over their contributing calls).
    """

    metric: str
    value: float
    unit: str
    artifact: str
    dataset: str | None = None
    backend: str | None = None
    model_seconds: float | None = None
    items: int = 0
    counters: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return _jsonable(asdict(self))

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchResult":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})


@dataclass
class ArtifactResult:
    """One regenerated paper artifact: tabular view + metric records."""

    artifact: str
    title: str
    headers: list
    rows: list
    results: list

    def to_dict(self) -> dict:
        return {
            "artifact": self.artifact,
            "title": self.title,
            "headers": _jsonable(list(self.headers)),
            "rows": _jsonable([list(r) for r in self.rows]),
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ArtifactResult":
        return cls(
            artifact=doc["artifact"],
            title=doc["title"],
            headers=list(doc["headers"]),
            rows=[list(r) for r in doc["rows"]],
            results=[BenchResult.from_dict(r) for r in doc.get("results", [])],
        )


class ArtifactBuilder:
    """Incremental construction of an :class:`ArtifactResult`.

    Table/figure engines add display rows and metric records as they
    measure; :meth:`build` assembles the immutable result.
    """

    def __init__(self, artifact: str, title: str, headers: list):
        self.artifact = artifact
        self.title = title
        self.headers = list(headers)
        self.rows: list = []
        self.results: list = []
        self._keys: set = set()

    def add_row(self, row: list) -> None:
        self.rows.append(list(row))

    def metric(
        self,
        value,
        unit: str,
        *parts,
        dataset: str | None = None,
        backend: str | None = None,
        record: BenchRecord | None = None,
        records=None,
        items: int = 0,
    ) -> BenchResult:
        """Record one metric; ``parts`` extend the artifact id into the key.

        Pass ``record`` for a metric backed by a single timed call, or
        ``records`` (an iterable of :class:`BenchRecord`) for an aggregate —
        model seconds and counters are summed over the contributors.  A key
        already recorded is a :class:`ValidationError`: a suite holds each key
        once, or :func:`validate_suite` refuses to load it.
        """
        key = metric_key(self.artifact, *parts)
        if key in self._keys:
            raise ValidationError(f"duplicate metric key {key!r}")
        self._keys.add(key)
        model = None
        counters: dict = {}
        contributors = [record] if record is not None else list(records or [])
        if contributors:
            model = sum(r.model_seconds for r in contributors)
            for r in contributors:
                for k, v in r.counters.items():
                    if v:
                        counters[k] = counters.get(k, 0) + int(v)
            items = items or sum(r.items for r in contributors)
        result = BenchResult(
            metric=key,
            value=float(value),
            unit=unit,
            artifact=self.artifact,
            dataset=dataset,
            backend=backend,
            model_seconds=model,
            items=int(items),
            counters=counters,
        )
        self.results.append(result)
        return result

    def build(self) -> ArtifactResult:
        return ArtifactResult(
            artifact=self.artifact,
            title=self.title,
            headers=self.headers,
            rows=self.rows,
            results=self.results,
        )


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def environment_fingerprint(seed: int = 0, quick: bool = False) -> dict:
    """Provenance block: what produced a results file, and on what."""
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv": list(sys.argv),
        "seed": int(seed),
        "quick": bool(quick),
    }


@dataclass
class SuiteResult:
    """A full bench run: environment fingerprint + artifact results."""

    environment: dict
    artifacts: list
    schema_version: int = SCHEMA_VERSION

    def metrics(self) -> dict:
        """Flat ``{metric key: BenchResult}`` view across all artifacts."""
        out: dict = {}
        for art in self.artifacts:
            for res in art.results:
                out[res.metric] = res
        return out

    def to_dict(self) -> dict:
        return {
            "kind": SUITE_KIND,
            "schema_version": self.schema_version,
            "environment": _jsonable(self.environment),
            "artifacts": [a.to_dict() for a in self.artifacts],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "SuiteResult":
        validate_suite(doc)
        return cls(
            environment=dict(doc["environment"]),
            artifacts=[ArtifactResult.from_dict(a) for a in doc["artifacts"]],
            schema_version=int(doc["schema_version"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "SuiteResult":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from None
        return cls.from_dict(doc)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "SuiteResult":
        with open(path) as fh:
            return cls.from_json(fh.read())


def validate_suite(doc) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is a readable suite."""
    if not isinstance(doc, dict):
        raise SchemaError(f"suite document must be an object, got {type(doc).__name__}")
    if doc.get("kind") != SUITE_KIND:
        raise SchemaError(f"kind must be {SUITE_KIND!r}, got {doc.get('kind')!r}")
    version = doc.get("schema_version")
    if not isinstance(version, int) or isinstance(version, bool):
        raise SchemaError("schema_version must be an integer")
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"schema_version {version} is newer than supported ({SCHEMA_VERSION}); "
            "update the code or regenerate the file"
        )
    if not isinstance(doc.get("environment"), dict):
        raise SchemaError("environment must be an object")
    artifacts = doc.get("artifacts")
    if not isinstance(artifacts, list):
        raise SchemaError("artifacts must be a list")
    seen_metrics: set = set()
    for i, art in enumerate(artifacts):
        if not isinstance(art, dict):
            raise SchemaError(f"artifacts[{i}] must be an object")
        for key in ("artifact", "title", "headers", "rows"):
            if key not in art:
                raise SchemaError(f"artifacts[{i}] missing required key {key!r}")
        for j, res in enumerate(art.get("results", [])):
            if not isinstance(res, dict):
                raise SchemaError(f"artifacts[{i}].results[{j}] must be an object")
            for key in ("metric", "value", "unit", "artifact"):
                if key not in res:
                    raise SchemaError(f"artifacts[{i}].results[{j}] missing required key {key!r}")
            if not isinstance(res["value"], (int, float)) or isinstance(res["value"], bool):
                raise SchemaError(f"metric {res['metric']!r} value must be a number")
            if res["metric"] in seen_metrics:
                raise SchemaError(f"duplicate metric key {res['metric']!r}")
            seen_metrics.add(res["metric"])
