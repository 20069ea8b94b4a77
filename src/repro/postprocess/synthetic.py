"""Synthetic subcircuit outputs for beyond-simulation-limit studies.

The paper's Fig. 10 benchmarks DD postprocessing on 30-100 qubit circuits
— far past what any backend can evaluate — by substituting synthetic
distributions for the subcircuit outputs (§5.1: "we used uniform
distributions as the subcircuit output to study the runtime").

:class:`RandomTensorProvider` implements the DD
:class:`~repro.postprocess.plan.TensorProvider` protocol without ever
materializing a subcircuit's full ``2^f`` output: for each physical
variant it draws (or fixes to uniform) the *merged* distribution over the
cut-measure bits and the currently-active output bits only, then runs the
same attribution code as a real evaluation's distributions.
Reconstruction cost and memory therefore match a real DD recursion at the
same definition.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..cutting.cutter import CutCircuit
from .attribution import TermTensor, _attribute_vectors, _term_layout
from .plan import CachingTensorProvider, Role

__all__ = ["RandomTensorProvider"]


class RandomTensorProvider(CachingTensorProvider):
    """DD tensor provider backed by synthetic subcircuit outputs.

    Parameters
    ----------
    cut_circuit:
        The structural cut (subcircuits are never executed).
    distribution:
        ``"random"`` (default) draws a fresh positive random distribution
        per variant; ``"uniform"`` uses exactly uniform outputs as in the
        paper's Fig. 10 protocol.  Uniform outputs make every non-(I, Z)
        attributed term exactly zero, so benchmarks wanting to exercise
        the full 4^K term space should use ``"random"``.
    cache:
        Off by default: fresh synthetic draws per collapse match the
        seed protocol.  Benchmarks studying the collapse cache enable it
        to make the synthetic provider behave like a real one (the same
        role signature then always yields the same tensor).
    """

    def __init__(
        self,
        cut_circuit: CutCircuit,
        seed: int = 0,
        distribution: str = "random",
        cache: bool = False,
    ):
        if distribution not in ("random", "uniform"):
            raise ValueError(f"unknown distribution {distribution!r}")
        super().__init__(cut_circuit, cache=cache)
        self.distribution = distribution
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def _collapse_subcircuit(self, subcircuit, roles: Dict[int, Role]):
        active_wires = [
            line.wire
            for line in subcircuit.output_lines
            if roles[line.wire][0] == "active"
        ]
        fixed_count = sum(
            1
            for line in subcircuit.output_lines
            if roles[line.wire][0] == "fixed"
        )
        tensor = self._synthesize(subcircuit, len(active_wires), fixed_count)
        return tensor, active_wires

    # ------------------------------------------------------------------
    def _synthesize(self, subcircuit, num_active: int, num_fixed: int) -> TermTensor:
        num_init = len(subcircuit.init_lines)
        num_meas = len(subcircuit.meas_lines)
        kept = 1 << num_active
        tensor_bytes = (4 ** (num_init + num_meas)) * kept * 8
        if tensor_bytes > 4 * 1024**3:
            raise MemoryError(
                f"subcircuit {subcircuit.index} term tensor would need "
                f"{tensor_bytes / 1024**3:.0f} GiB "
                f"(4^{num_init + num_meas} terms x 2^{num_active} active "
                "bins); lower the definition, spread active qubits across "
                "subcircuits, or cut with fewer cuts per subcircuit"
            )
        # Fixing a qubit keeps roughly half its shot mass per fixed bit.
        mass = 0.5**num_fixed
        size = (1 << num_meas) * kept
        cut_ids = [line.init_cut for line in subcircuit.init_lines] + [
            line.meas_cut for line in subcircuit.meas_lines
        ]
        data, out = _term_layout(cut_ids, kept)
        # Per init combination, one distribution over (meas bits, active
        # bits) summing to ``mass`` per physical basis combination (I and Z
        # share a circuit, so they share a draw), then the real build's
        # attribution with the meas bits as the leading qubit axes.
        for index in np.ndindex((4,) * num_init):
            if self.distribution == "uniform":
                draws = np.full((1, 3**num_meas, size), mass / size)
            else:
                draws = self._rng.random((1, 3**num_meas, size))
                draws *= mass / draws.sum(axis=-1, keepdims=True)
            _attribute_vectors(draws, range(num_meas), out[index])
        return TermTensor(subcircuit.index, sorted(cut_ids), num_active, data)
