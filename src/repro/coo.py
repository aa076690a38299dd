"""COO edge-list container shared by the graph, baselines, and datasets.

The paper's bulk-build workload assumes "the input is given in a COO format
(i.e., a list of edges each defined by source vertex, destination vertex,
and edge value)" — this class is that list, with the handful of
vectorized normalizations the datasets and structures need
(deduplication, symmetrization, CSR conversion).

Instances are lightweight views over three parallel arrays; all transforms
return new instances and never mutate in place.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError
from repro.util.groupby import last_occurrence_mask, stable_argsort
from repro.util.validation import as_int_array, check_equal_length

__all__ = ["COO"]


class COO:
    """An edge list ``(src[i], dst[i], weight[i])`` over ``num_vertices`` ids.

    Parameters
    ----------
    src, dst:
        Endpoint arrays (int64).
    num_vertices:
        Id-space size; inferred as ``max(endpoint) + 1`` when omitted.
    weights:
        Optional parallel weights; an unweighted COO stores ``None``.
    """

    __slots__ = ("src", "dst", "weights", "num_vertices")

    def __init__(self, src, dst, num_vertices: int | None = None, weights=None) -> None:
        self.src = as_int_array(src, "src")
        self.dst = as_int_array(dst, "dst")
        check_equal_length(("src", self.src), ("dst", self.dst))
        if weights is not None:
            weights = as_int_array(weights, "weights")
            check_equal_length(("src", self.src), ("weights", weights))
        self.weights = weights
        if num_vertices is None:
            num_vertices = (
                int(max(self.src.max(), self.dst.max())) + 1 if self.src.size else 0
            )
        if self.src.size and (
            self.src.min() < 0
            or self.dst.min() < 0
            or max(int(self.src.max()), int(self.dst.max())) >= num_vertices
        ):
            raise ValidationError("endpoints out of range for num_vertices")
        self.num_vertices = int(num_vertices)

    # -- basic properties -----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.src.shape[0])

    def weights_or_zeros(self) -> np.ndarray:
        return self.weights if self.weights is not None else np.zeros(self.num_edges, np.int64)

    def out_degrees(self) -> np.ndarray:
        """Out-degree per vertex id (duplicates counted as given)."""
        return np.bincount(self.src, minlength=self.num_vertices).astype(np.int64)

    # -- normalizations ---------------------------------------------------------

    def deduplicated(self) -> "COO":
        """Keep the *last* occurrence of each (src, dst) pair.

        Matches the graph's replace semantics, so a deduplicated COO builds
        the identical structure its duplicated original would.
        """
        composite = (self.src << np.int64(32)) | self.dst
        return self._select_indices(np.flatnonzero(last_occurrence_mask(composite)))

    def symmetrized(self) -> "COO":
        """Union with the reversed edge list (does not deduplicate)."""
        return COO(
            np.concatenate([self.src, self.dst]),
            np.concatenate([self.dst, self.src]),
            self.num_vertices,
            None if self.weights is None else np.concatenate([self.weights, self.weights]),
        )

    def permuted(self, seed: int = 0) -> "COO":
        """Shuffle edge order (batch streams should not be sorted by source)."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.num_edges)
        return self._select_indices(order)

    def _select_indices(self, idx: np.ndarray) -> "COO":
        return COO(
            self.src[idx],
            self.dst[idx],
            self.num_vertices,
            None if self.weights is None else self.weights[idx],
        )

    def batches(self, batch_size: int):
        """Yield consecutive COO slices of at most ``batch_size`` edges.

        Each yielded COO holds slice *views* of the parent arrays — no
        index array is materialized and no per-batch fancy-index copy is
        paid, so streaming a large COO is allocation-free per batch.
        """
        if batch_size <= 0:
            raise ValidationError("batch_size must be positive")
        for start in range(0, self.num_edges, batch_size):
            stop = min(start + batch_size, self.num_edges)
            yield COO(
                self.src[start:stop],
                self.dst[start:stop],
                self.num_vertices,
                None if self.weights is None else self.weights[start:stop],
            )

    # -- conversions -----------------------------------------------------------

    def csr_order(self) -> np.ndarray:
        """The stable permutation sorting the edges by ``(src, dst)``.

        Bit-identical to ``np.lexsort((dst, src))`` — equal pairs keep
        input order, so duplicate weights do too — at value-sort speed:
        one packed key ``src * num_vertices + dst``.  When that key could
        overflow int64, two stable passes, minor key first.
        """
        n = self.num_vertices
        if n * n <= 1 << 63:  # the largest key, n * n - 1, fits in int64
            return stable_argsort(self.src * np.int64(n) + self.dst)
        by_dst = stable_argsort(self.dst)
        return by_dst[stable_argsort(self.src[by_dst])]

    def to_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(row_ptr, col_idx, weights)`` sorted by (src, dst).

        Duplicates are preserved; call :meth:`deduplicated` first when a
        simple graph is required.  Raises :class:`ValidationError` if the
        arrays were mutated to hold ids outside ``[0, num_vertices)`` —
        ``np.bincount`` would otherwise silently grow the histogram and
        mis-bin every row after a stray ``src``, and a stray ``dst`` would
        plant an invalid column id for consumers to trip over.
        """
        for label, arr in (("src", self.src), ("dst", self.dst)):
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self.num_vertices):
                raise ValidationError(
                    f"{label} contains ids outside [0, {self.num_vertices}); "
                    "the arrays were mutated after construction"
                )
        order = self.csr_order()
        col = self.dst[order]
        w = self.weights_or_zeros()[order]
        counts = np.bincount(self.src, minlength=self.num_vertices)
        row_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        return row_ptr, col, w

    def degree_stats(self) -> dict[str, float]:
        """Min/max/mean/std of out-degree — the columns of the paper's Table I."""
        deg = self.out_degrees()
        if deg.size == 0:
            return {"min": 0, "max": 0, "mean": 0.0, "std": 0.0}
        return {
            "min": int(deg.min()),
            "max": int(deg.max()),
            "mean": float(deg.mean()),
            "std": float(deg.std()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "weighted" if self.weights is not None else "unweighted"
        return f"COO(|V|={self.num_vertices}, |E|={self.num_edges}, {kind})"
