"""Device pools: run subcircuit variants across many small QPUs.

The paper (§5.1) notes "CutQC allows executing the subcircuits on many
small quantum computers in parallel to further reduce the time spent on
quantum computers".  :class:`DevicePool` implements that execution model:
:meth:`DevicePool.place` spreads jobs (the
:class:`~repro.core.executor.VariantExecutor` places one per body-key
group of subcircuits) over a set of virtual devices, and a simple timing
model — shots x circuit depth x gate time, plus per-job queue latency —
estimates the quantum wall-clock the paper treats as negligible.

The pool is also the natural place to model *device heterogeneity*: each
member device has its own size, topology and noise, and the pool refuses
to place a job on a device it does not fit.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

from ..circuits import QuantumCircuit
from .device import VirtualDevice

__all__ = ["DevicePool"]

#: Superconducting gate time scale used by the wall-clock model (§5.1:
#: "gate times ... are on the order of nanoseconds").
_GATE_SECONDS = 500e-9
#: Per-job overhead (load + readout reset), a few milliseconds on clouds.
_JOB_OVERHEAD_SECONDS = 2e-3


class DevicePool:
    """A set of small devices evaluated against in parallel."""

    def __init__(self, devices: Sequence[VirtualDevice]):
        if not devices:
            raise ValueError("a device pool needs at least one device")
        self.devices = list(devices)

    @property
    def max_qubits(self) -> int:
        return max(device.num_qubits for device in self.devices)

    # ------------------------------------------------------------------
    def estimate_job_seconds(self, circuit: QuantumCircuit, shots: int) -> float:
        """Shot-serial execution-time model for one variant."""
        return _JOB_OVERHEAD_SECONDS + shots * circuit.depth() * _GATE_SECONDS

    def place(
        self,
        jobs: Sequence[Tuple[int, float]],
        pinned: Optional[Mapping[int, int]] = None,
    ) -> Tuple[List[int], List[float]]:
        """Place ``(width, seconds)`` jobs on the least-loaded fitting
        device, in LPT (longest-processing-time-first) order.

        Placing the longest jobs first before the greedy least-loaded
        assignment is the classic makespan heuristic (4/3-approximate vs
        the 2-approximate arbitrary-order greedy): short jobs fill in the
        load gaps the long ones leave behind.  Ties go to the lowest
        device index.  ``pinned`` maps a job's position to the device that
        takes it regardless of load.  Returns each job's device index, in
        input order, and the per-device loads: their max is the modelled
        quantum makespan, their sum what one device alone would spend.
        """
        pinned = pinned or {}
        loads = [0.0] * len(self.devices)
        chosen = [0] * len(jobs)
        # LPT: sort stably by descending runtime, place greedily.
        for index in sorted(range(len(jobs)), key=lambda i: -jobs[i][1]):
            width, seconds = jobs[index]
            if index in pinned:
                device = pinned[index]
            else:
                fitting = [
                    device_index
                    for device_index, device in enumerate(self.devices)
                    if device.num_qubits >= width
                ]
                if not fitting:
                    raise ValueError(f"no pool device fits a {width}-qubit job")
                device = min(fitting, key=loads.__getitem__)
            loads[device] += seconds
            chosen[index] = device
        return chosen, loads
