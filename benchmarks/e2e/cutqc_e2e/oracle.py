"""Oracles and the checks that compare a job's output against them.

Oracles are the benchmark's work, not the program's: ``run.py`` builds
them once per pass, before any worker starts, from the *uncut* circuit —
a dense ``repro.sim`` statevector up to ``DENSE_ORACLE_QUBITS``, the
library's analytic ``bv_solution`` / ``adder_solution`` beyond.  A check
returns ``None`` or a one-line reason; it never raises on a wrong answer,
so a wrong answer is counted as a failed job.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import catalog

#: FD/DD outputs against the exact oracle.
EXACT_ATOL = 1e-8
#: A repeated noisy job against its warm-up output (bit-reproducibility).
REPEAT_ATOL = 1e-12
#: Trajectory-sampled reconstructions are unbiased estimates, not exactly
#: normalised or non-negative, and how far off depends on the sampling
#: seed: over seeds 0-399 adder-10 over 4 cuts summed to 1 +- 0.063 at
#: worst and the lowest entry was -0.011.  Four times that is allowed.
NOISY_SUM_ATOL = 0.25
NOISY_MIN = -0.05
#: An ideal output state must reach this share of the top probability.
#: Not "is the argmax": with 24 trajectories bv-16's hidden string (0.035-
#: 0.095) lost to a neighbour at 1 seed in 400, by a ratio of 0.82.
NOISY_TOP_RATIO = 0.5
_SUPPORT_FLOOR = 1e-9


def dense(circuit) -> Tuple[np.ndarray, float]:
    """The uncut circuit's exact distribution and the seconds it took."""
    from repro.sim import Statevector

    began = time.perf_counter()
    state = Statevector(circuit.num_qubits).apply_circuit(circuit)
    probabilities = state.probabilities()
    return probabilities, time.perf_counter() - began


def build_one(job: Dict) -> Dict:
    """The oracle of one catalog job: ``{"dense": [...]}`` for FD on exact
    backends, else ``{"support": {bits: p}}`` — the states that carry the
    ideal distribution — plus ``uncut_s`` where a dense run produced it."""
    from repro.library import adder_solution, bv_solution, get_benchmark

    family, qubits = job["family"], job["qubits"]
    analytic = {"bv": bv_solution, "adder": adder_solution}.get(family)
    if analytic is not None and qubits > catalog.DENSE_ORACLE_QUBITS:
        return {"support": {analytic(qubits, **job["kwargs"]): 1.0}}
    probabilities, seconds = dense(get_benchmark(family, qubits, **job["kwargs"]))
    if job["query"] == "fd" and not job["noisy"]:
        return {"dense": probabilities.tolist(), "uncut_s": seconds}
    states = np.flatnonzero(probabilities > _SUPPORT_FLOOR)
    support = {
        format(int(state), f"0{qubits}b"): float(probabilities[state])
        for state in states
    }
    if abs(sum(support.values()) - 1.0) > _SUPPORT_FLOOR * 2**qubits:
        raise ValueError(f"{job['id']}: ideal output is not sparse")
    return {"support": support, "uncut_s": seconds}


def build(jobs: List[Dict]) -> Dict[str, Dict]:
    return {job["id"]: build_one(job) for job in jobs}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def check_fd(probabilities: np.ndarray, oracle: Dict) -> Optional[str]:
    error = float(np.abs(probabilities - np.asarray(oracle["dense"])).max())
    if not error <= EXACT_ATOL:
        return f"FD output off the dense oracle by {error:.3e}"
    return None


def check_noisy(
    probabilities: np.ndarray, oracle: Dict, reference: Optional[np.ndarray]
) -> Optional[str]:
    total, low = float(probabilities.sum()), float(probabilities.min())
    if abs(total - 1.0) > NOISY_SUM_ATOL or low < NOISY_MIN:
        return f"not a distribution: sum {total:.6f}, min {low:.3e}"
    ideal = max(probabilities[int(bits, 2)] for bits in oracle["support"])
    if ideal < NOISY_TOP_RATIO * probabilities.max():
        return (f"no ideal output state is near the top: {ideal:.3e} "
                f"against {float(probabilities.max()):.3e}")
    if reference is not None:
        drift = float(np.abs(probabilities - reference).max())
        if not drift <= REPEAT_ATOL:
            return f"differs from the warm-up output by {drift:.3e}"
    return None


def check_dd(query, oracle: Dict) -> Optional[str]:
    """Every bin of the current partition equals the ideal distribution
    summed over that bin."""
    support = oracle["support"]
    open_bins: Dict[int, List] = {}
    for entry in query.current_partition:
        open_bins.setdefault(entry.recursion, []).append(entry)
    total = 0.0
    for recursion in query.recursions:
        entries = open_bins.get(recursion.index, ())
        if not entries:
            continue
        # Ideal mass of each of this recursion's 2^active bins.
        expected = np.zeros(len(recursion.probabilities))
        for bits, probability in support.items():
            if all(int(bits[w]) == b for w, b in recursion.fixed.items()):
                index = int("".join(bits[w] for w in recursion.active), 2)
                expected[index] += probability
        for entry in entries:
            total += entry.probability
            error = abs(entry.probability - expected[entry.index])
            if not error <= EXACT_ATOL:
                return (
                    f"bin {entry.index} of recursion {recursion.index} "
                    f"off the oracle by {error:.3e}"
                )
    if abs(total - 1.0) > EXACT_ATOL * max(1, len(query.bins)):
        return f"partition sums to {total:.9f}"
    return None


def check_states(states: List[Dict], distribution: np.ndarray) -> Optional[str]:
    """Returned ``{state, probability}`` rows against a dense oracle: each
    probability is that state's, and together they are the largest."""
    if not states:
        return "no states returned"
    returned = np.array([row["probability"] for row in states])
    indices = [int(row["state"], 2) for row in states]
    error = float(np.abs(returned - distribution[indices]).max())
    if not error <= EXACT_ATOL:
        return f"state probabilities off the dense oracle by {error:.3e}"
    largest = np.sort(distribution)[::-1][: len(states)]
    error = float(np.abs(np.sort(returned)[::-1] - largest).max())
    if not error <= EXACT_ATOL:
        return f"returned states are not the top {len(states)}"
    return None
