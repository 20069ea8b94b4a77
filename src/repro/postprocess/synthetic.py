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
exact same attribution + term-transform code path as real evaluations.
Reconstruction cost and memory therefore match a real DD recursion at the
same definition.
"""

from __future__ import annotations

import itertools
from typing import Dict, Tuple

import numpy as np

from ..cutting.cutter import CutCircuit
from .attribution import ATTRIBUTION_BASES, TermTensor, transform_attributed_to_terms
from .plan import CachingTensorProvider, Role

__all__ = ["RandomTensorProvider"]

_SIGNS = {
    "I": np.array([1.0, 1.0]),
    "X": np.array([1.0, -1.0]),
    "Y": np.array([1.0, -1.0]),
    "Z": np.array([1.0, -1.0]),
}


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
        cache_limit: int = 512,
    ):
        if distribution not in ("random", "uniform"):
            raise ValueError(f"unknown distribution {distribution!r}")
        super().__init__(cut_circuit, cache=cache, cache_limit=cache_limit)
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

        def merged_variant() -> np.ndarray:
            """Distribution over (meas bits, active bits), summing to mass."""
            size = (1 << num_meas) * kept
            if self.distribution == "uniform":
                flat = np.full(size, mass / size)
            else:
                flat = self._rng.random(size)
                flat *= mass / flat.sum()
            return flat.reshape((2,) * num_meas + (kept,))

        shape = (4,) * (num_init + num_meas) + (kept,)
        attributed = np.zeros(shape)
        # Physical variants: I and Z share a circuit, so draw per physical
        # basis combo and reuse for the I/Z attribution pair.
        for init_combo in itertools.product(range(4), repeat=num_init):
            physical: Dict[Tuple[int, ...], np.ndarray] = {}
            for basis_combo in itertools.product(range(4), repeat=num_meas):
                bases = tuple(ATTRIBUTION_BASES[b] for b in basis_combo)
                key = tuple(3 if b == 0 else b for b in basis_combo)  # I -> Z
                if key not in physical:
                    physical[key] = merged_variant()
                tensor = physical[key]
                for axis in reversed(range(num_meas)):
                    tensor = np.tensordot(
                        tensor, _SIGNS[bases[axis]], axes=([axis], [0])
                    )
                attributed[init_combo + basis_combo] = tensor.reshape(-1)

        axis_cut_ids = [line.init_cut for line in subcircuit.init_lines] + [
            line.meas_cut for line in subcircuit.meas_lines
        ]
        return transform_attributed_to_terms(
            attributed,
            num_init=num_init,
            num_meas=num_meas,
            axis_cut_ids=axis_cut_ids,
            num_effective=num_active,
            subcircuit_index=subcircuit.index,
        )
