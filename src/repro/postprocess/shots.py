"""Shot-level DD evaluation and shot-budget estimation.

Two pieces the paper describes but the precomputed-tensor path glosses
over:

* :class:`ShotBasedTensorProvider` implements Algorithm 1's inner loop:
  each DD collapse draws a finite number of shots from every physical
  variant of the pipeline's own evaluated results (one multinomial per
  variant row) and collapses the sampled frequencies exactly as an
  evaluated result is collapsed — so the bins are what a deployment that
  "groups shots with common merged qubits together" would report.  The
  variants are evaluated once, by the pipeline; only the shots are
  redrawn.

* :func:`estimate_required_shots` answers §3.2's sufficiency question
  ("one is also expected to take sufficient shots for the subcircuits"):
  given a target L-infinity reconstruction error, how many shots must
  each variant take?  The bound follows from the reconstruction being a
  sum of 4^K products of (at most unit-norm) attributed values, each
  estimated with multinomial standard error ~ sqrt(1/shots), scaled by
  the per-cut expansion factors.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cutting.cutter import CutCircuit, Subcircuit
from ..cutting.variants import SubcircuitResult
from ..sim.sampler import sample_counts
from .attribution import TermTensor, build_term_tensor
from .plan import CachingTensorProvider, Role, binned_tensor

__all__ = ["ShotBasedTensorProvider", "estimate_required_shots"]


class ShotBasedTensorProvider(CachingTensorProvider):
    """DD tensor provider that samples shots per collapse (Algorithm 1).

    Parameters
    ----------
    cut_circuit:
        The cut to evaluate.
    results:
        The evaluated :class:`~repro.cutting.variants.SubcircuitResult` of
        every subcircuit, as :class:`~repro.postprocess.plan.PrecomputedTensorProvider`
        takes them.  Their ``distributions`` are the variant distributions
        shots are drawn from: exact, noisy-device or device-pool alike.
    shots:
        Shots per physical variant per collapse (the paper used up to
        8192 per subcircuit on hardware).
    seed:
        Seeds the shot draws, and nothing else.
    cache:
        Reuse sampled collapses across bins/recursions whose role
        signature matches (Algorithm 1's "group shots with common merged
        qubits together").  ``False`` redraws shots on every collapse.
    """

    def __init__(
        self,
        cut_circuit: CutCircuit,
        results: Sequence[SubcircuitResult],
        shots: int = 8192,
        seed: Optional[int] = None,
        cache: bool = True,
        cache_limit: int = 512,
    ):
        if shots <= 0:
            raise ValueError("shots must be positive")
        super().__init__(cut_circuit, cache=cache, cache_limit=cache_limit)
        self.results = sorted(results, key=lambda r: r.subcircuit.index)
        self.shots = int(shots)
        self._rng = np.random.default_rng(seed)

    def _collapse_subcircuit(
        self, subcircuit: Subcircuit, roles: Dict[int, Role]
    ) -> Tuple[TermTensor, List[int]]:
        """One multinomial per variant row, in generation order, then the
        evaluated-result collapse of the sampled frequencies."""
        distributions = self.results[subcircuit.index].distributions
        rows = distributions.reshape(-1, distributions.shape[-1])
        counts = np.stack(
            [sample_counts(row, self.shots, self._rng) for row in rows]
        )
        frequencies = (counts / self.shots).reshape(distributions.shape)
        sampled = SubcircuitResult(subcircuit, distributions=frequencies)
        return binned_tensor(build_term_tensor(sampled), subcircuit, roles)


def estimate_required_shots(
    cut_circuit: CutCircuit,
    target_error: float = 0.01,
    confidence_sigmas: float = 2.0,
) -> int:
    """Shots per variant for a target reconstruction error (§3.2).

    Each reconstructed probability is ``(1/2^K) * sum over 4^K terms`` of
    products of attributed estimates.  An attributed value is a signed sum
    of multinomial frequencies, so its standard error is at most
    ``c / sqrt(shots)`` with ``c <= 2`` (the |+>/|+i> terms weigh raw
    frequencies by up to 2).  First-order error propagation over the term
    sum gives ``error <= confidence_sigmas * 4^K/2^K * c / sqrt(shots)``,
    which this function inverts.  The bound is loose (it ignores the
    cancellation that makes real reconstructions far more accurate) but
    gives the right scaling in K — the paper's observation that more cuts
    demand more shots.
    """
    if target_error <= 0:
        raise ValueError("target_error must be positive")
    num_cuts = cut_circuit.num_cuts
    amplification = (4.0**num_cuts) / (2.0**num_cuts)
    per_term_constant = 2.0
    shots = (confidence_sigmas * amplification * per_term_constant / target_error) ** 2
    return max(1, int(math.ceil(shots)))
