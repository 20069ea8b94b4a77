"""The heap-of-``Bin``s frontier the k-way merge replaced, kept as oracle.

``replay_frontier`` re-runs a finished query's zoom schedule over its
``query.recursions`` exactly as ``DynamicDefinitionQuery`` chose bins
before a recursion owned its bins as arrays: every bin of every
recursion becomes a ``Bin`` object pushed as ``(-probability, creation
sequence, bin)``, and each round pops its parents off that one heap.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.postprocess.dd import Bin, DynamicDefinitionQuery


def replay_frontier(
    query: DynamicDefinitionQuery, budgets: Sequence[int]
) -> Tuple[List[Optional[Bin]], int]:
    """The parent bin of every recursion, and the frontier left over.

    ``budgets`` are the ``max_recursions`` of the ``run()`` calls that
    produced ``query`` (a ``step()`` is a budget of 1).
    """
    total = query.provider.num_qubits
    heap: List[Tuple[float, int, Bin]] = []
    pushed = done = 0
    parents: List[Optional[Bin]] = []
    for budget in budgets:
        target = done + budget
        while done < target:
            if done and not heap:
                break  # nothing left to zoom into
            width = min(query.zoom_width, target - done)
            if done:
                popped = [
                    heapq.heappop(heap)[2] for _ in range(min(width, len(heap)))
                ]
                for entry in popped:
                    entry.zoomed = True
            else:
                popped = [None]  # the root recursion has no parent bin
            parents.extend(popped)
            for recursion in query.recursions[done : done + len(popped)]:
                expandable = (
                    len(recursion.fixed) + len(recursion.active) < total
                )
                for index, probability in enumerate(recursion.probabilities):
                    entry = Bin(
                        fixed=dict(recursion.fixed),
                        active=recursion.active,
                        index=index,
                        probability=float(probability),
                        recursion=recursion.index,
                    )
                    if expandable:
                        heapq.heappush(
                            heap, (-entry.probability, pushed, entry)
                        )
                        pushed += 1
            done += len(popped)
    return parents, len(heap)
