"""Host-speed probe.

On a shared host, other tenants slow every process on it by up to half, in
spells that last from a second to minutes.  No choice of which executions to
keep removes a spell that covers a whole run, so the benchmark times a fixed
computation of its own between operations and scales each operation's time
by how fast the host ran the probe around it.

The probe is a BFS over a fixed patch of the triangular lattice, written in
the benchmark, never in the library, so a change to the library cannot move
it.  Like the library it walks frozenset adjacency and fills a dict, and
that matters.  In one trial of ten cold-check runs on a 2-vCPU host, with
both probes timed around every operation, scaling by this probe cut the
spread of the runs' median latency from 0.066 of the median to 0.013;
scaling by a list-based BFS with the garbage collector off gave 0.079.
"""

from __future__ import annotations

import time

import checks

SIDE = 40
# Sets the scale only: a scaled time is the time an operation would take on
# a host that runs the probe in REFERENCE_S.  Between operations, the 2-vCPU
# host the benchmark was tuned on ran it in 0.9-1.8 ms.
REFERENCE_S = 0.001


def _lattice(n: int) -> dict[int, frozenset[int]]:
    """Adjacency of an n x n patch of the triangular lattice."""
    steps = ((0, 1), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1))
    return {i * n + j: frozenset(a * n + b for a, b in ((i + di, j + dj) for di, dj in steps)
                                 if 0 <= a < n and 0 <= b < n)
            for i in range(n) for j in range(n)}


_ADJACENCY = _lattice(SIDE)


def probe() -> float:
    """Seconds one BFS over the lattice takes now."""
    t0 = time.perf_counter()
    checks.bfs(_ADJACENCY, (0,))
    return time.perf_counter() - t0


def scales(probes: list[float]) -> list[float]:
    """Scale factor for each of len(probes) - 1 operations, each timed
    between two consecutive probes."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(probes, probes[1:])]
