"""Shot-level DD evaluation and shot-budget estimation.

Two pieces the paper describes but the precomputed-tensor path glosses
over:

* :class:`ShotBasedTensorProvider` implements Algorithm 1's inner loop
  literally: each DD recursion *re-runs* the subcircuit variants with a
  finite number of shots and "groups shots with common merged qubits
  together" — the merged representation is built from counts, never from
  a full 2^f vector.  This is the execution mode a real deployment uses.

* :func:`estimate_required_shots` answers §3.2's sufficiency question
  ("one is also expected to take sufficient shots for the subcircuits"):
  given a target L-infinity reconstruction error, how many shots must
  each variant take?  The bound follows from the reconstruction being a
  sum of 4^K products of (at most unit-norm) attributed values, each
  estimated with multinomial standard error ~ sqrt(1/shots), scaled by
  the per-cut expansion factors.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..cutting.cutter import CutCircuit, Subcircuit
from ..cutting.variants import INIT_LABELS, MEAS_BASES, SubcircuitVariant, variant_circuit
from ..sim.sampler import sample_counts
from ..sim.statevector import simulate_probabilities
from .attribution import ATTRIBUTION_BASES, TermTensor, transform_attributed_to_terms
from .plan import CachingTensorProvider, Role

__all__ = ["ShotBasedTensorProvider", "estimate_required_shots"]

_SIGNS = {
    "I": np.array([1.0, 1.0]),
    "X": np.array([1.0, -1.0]),
    "Y": np.array([1.0, -1.0]),
    "Z": np.array([1.0, -1.0]),
}


class ShotBasedTensorProvider(CachingTensorProvider):
    """DD tensor provider that samples shots per recursion (Algorithm 1).

    Parameters
    ----------
    cut_circuit:
        The cut to evaluate.
    shots:
        Shots per physical variant per recursion (the paper used up to
        8192 per subcircuit on hardware).
    backend:
        Optional ``circuit -> probability vector`` callable giving the
        *true* variant distribution shots are drawn from; defaults to
        exact statevector simulation.  (Devices already add their own
        shot noise — pass ``device.backend(shots=...)`` there and keep
        this provider's ``shots`` for the merging path only.)
    worker_pool:
        A persistent :class:`~repro.postprocess.parallel.WorkerPool`.
        When set, the first recursion evaluates all physical variants as
        one batch through a
        :class:`~repro.core.executor.VariantExecutor` fanned over the
        pool's workers (instead of lazily, one circuit at a time).
    cache:
        Reuse merged shot tensors across bins/recursions whose role
        signature matches (Algorithm 1's "group shots with common merged
        qubits together").  ``False`` redraws shots on every collapse.
    sim_batch:
        With the default exact backend, fill each subcircuit's variant
        distributions from batched fused body passes (at most
        ``sim_batch`` basis columns per pass) instead of simulating one
        circuit per variant — the shots are then sampled from the
        distributions materialised from those amplitudes.  ``0``
        disables; ignored when a custom ``backend`` is given.
    fusion_width:
        Max fused-unitary width for the batched fill's fusion pass.
    """

    def __init__(
        self,
        cut_circuit: CutCircuit,
        shots: int = 8192,
        backend=None,
        seed: Optional[int] = None,
        worker_pool=None,
        cache: bool = True,
        cache_limit: int = 512,
        sim_batch: int = 0,
        fusion_width: int = 2,
    ):
        if shots <= 0:
            raise ValueError("shots must be positive")
        if sim_batch < 0:
            raise ValueError("sim_batch must be >= 0")
        super().__init__(cut_circuit, cache=cache, cache_limit=cache_limit)
        self.shots = int(shots)
        self._exact_backend = backend is None
        self.backend = backend or simulate_probabilities
        self.worker_pool = worker_pool
        self.sim_batch = int(sim_batch) if backend is None else 0
        self.fusion_width = int(fusion_width)
        self._rng = np.random.default_rng(seed)
        # Variant distributions are fixed physics: cache them so each
        # recursion redraws *shots*, not re-simulations.
        self._distribution_cache: Dict[Tuple[int, Tuple[str, ...], Tuple[str, ...]], np.ndarray] = {}
        self._prefilled = False

    # ------------------------------------------------------------------
    def collapsed(self, roles: Dict[int, Role]) -> List[Tuple[TermTensor, List[int]]]:
        self._prefill()
        return super().collapsed(roles)

    def _collapse_subcircuit(
        self, subcircuit: Subcircuit, roles: Dict[int, Role]
    ) -> Tuple[TermTensor, List[int]]:
        return self._evaluate_merged(subcircuit, roles)

    def _prefill(self) -> None:
        """Populate the distribution cache as one deduplicated batch on
        the worker pool (only worthwhile with one)."""
        if self._prefilled or self.worker_pool is None:
            return
        # Local import: repro.core imports repro.postprocess at package
        # initialization time.
        from ..core.executor import VariantExecutor

        executor = VariantExecutor(
            backend=None if self._exact_backend else self.backend,
            worker_pool=self.worker_pool,
            sim_batch=self.sim_batch,
            fusion_width=self.fusion_width,
        )
        for result in executor.run(self.cut_circuit.subcircuits):
            index = result.subcircuit.index
            for (inits, bases), vector in result.probabilities.items():
                self._distribution_cache[(index, inits, bases)] = vector
        self._prefilled = True

    # ------------------------------------------------------------------
    def _variant_distribution(
        self, subcircuit: Subcircuit, variant: SubcircuitVariant
    ) -> np.ndarray:
        key = (subcircuit.index, variant.inits, variant.bases)
        if key not in self._distribution_cache:
            if self.sim_batch:
                # One batched fill per subcircuit: every (inits, bases)
                # distribution lands at once, so a missing key means the
                # subcircuit has not been filled yet.
                from ..cutting.variants import batched_variant_probabilities

                probabilities, _ = batched_variant_probabilities(
                    subcircuit,
                    fusion_width=self.fusion_width,
                    max_batch=self.sim_batch,
                )
                for (inits, bases), vector in probabilities.items():
                    self._distribution_cache[
                        (subcircuit.index, inits, bases)
                    ] = vector
                return self._distribution_cache[key]
            circuit = variant_circuit(subcircuit, variant)
            self._distribution_cache[key] = np.asarray(
                self.backend(circuit), dtype=float
            )
        return self._distribution_cache[key]

    def _evaluate_merged(
        self, subcircuit: Subcircuit, roles: Dict[int, Role]
    ) -> Tuple[TermTensor, List[int]]:
        output_lines = subcircuit.output_lines
        meas_lines = subcircuit.meas_lines
        init_lines = subcircuit.init_lines
        num_meas = len(meas_lines)
        num_init = len(init_lines)
        active_positions = [
            position
            for position, line in enumerate(output_lines)
            if roles[line.wire][0] == "active"
        ]
        active_wires = [output_lines[p].wire for p in active_positions]
        kept = 1 << len(active_wires)

        shape = (4,) * (num_init + num_meas) + (kept,)
        attributed = np.zeros(shape)
        for init_combo in itertools.product(range(4), repeat=num_init):
            init_labels = tuple(INIT_LABELS[i] for i in init_combo)
            merged_by_physical: Dict[Tuple[str, ...], np.ndarray] = {}
            for bases_physical in itertools.product(MEAS_BASES, repeat=num_meas):
                variant = SubcircuitVariant(inits=init_labels, bases=bases_physical)
                distribution = self._variant_distribution(subcircuit, variant)
                counts = sample_counts(distribution, self.shots, self._rng)
                merged_by_physical[bases_physical] = self._merge_counts(
                    subcircuit, counts, roles, active_positions
                )
            for basis_combo in itertools.product(range(4), repeat=num_meas):
                bases = tuple(ATTRIBUTION_BASES[b] for b in basis_combo)
                physical = tuple("Z" if b == "I" else b for b in bases)
                tensor = merged_by_physical[physical]
                for axis in reversed(range(num_meas)):
                    tensor = np.tensordot(
                        tensor, _SIGNS[bases[axis]], axes=([axis], [0])
                    )
                attributed[init_combo + basis_combo] = tensor.reshape(-1)

        axis_cut_ids = [line.init_cut for line in init_lines] + [
            line.meas_cut for line in meas_lines
        ]
        term_tensor = transform_attributed_to_terms(
            attributed,
            num_init=num_init,
            num_meas=num_meas,
            axis_cut_ids=axis_cut_ids,
            num_effective=len(active_wires),
            subcircuit_index=subcircuit.index,
        )
        return term_tensor, active_wires

    def _merge_counts(
        self,
        subcircuit: Subcircuit,
        counts: np.ndarray,
        roles: Dict[int, Role],
        active_positions: List[int],
    ) -> np.ndarray:
        """Group shots: meas bits kept, active bits kept, fixed selected,
        merged summed — Algorithm 1's shot attribution step."""
        output_lines = subcircuit.output_lines
        tensor = counts.reshape((2,) * subcircuit.width).astype(float)
        # Walk output axes from the back so axis indices stay valid; the
        # measurement axes (never output lines) are untouched.
        for position in reversed(range(len(output_lines))):
            line = output_lines[position]
            role = roles[line.wire]
            axis = line.line
            if role[0] == "merged":
                tensor = tensor.sum(axis=axis, keepdims=True)
            elif role[0] == "fixed":
                tensor = np.take(tensor, [int(role[1])], axis=axis)
        # Now flatten: meas axes (line order) first, active axes after.
        meas_axes = [line.line for line in subcircuit.meas_lines]
        active_axes = [output_lines[p].line for p in active_positions]
        ordered = np.transpose(
            tensor,
            axes=meas_axes
            + active_axes
            + [
                axis
                for axis in range(subcircuit.width)
                if axis not in meas_axes and axis not in active_axes
            ],
        )
        flattened = ordered.reshape(
            (2,) * len(meas_axes) + (1 << len(active_axes),)
        )
        return flattened / self.shots


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
