"""Deterministic k x k road-lattice maps for the capacity workload.

Corridors run along every row and column with ``r % 3 == 1 or c % 3 == 1``
inside a wall border, so a lattice of size k has k x k junction rows and
columns and a 3k x 3k grid. Every corridor segment between two junctions
is a marker site; the seed shuffles the sites and assigns the desk
legend's observations in fixed proportions, so the state count depends on
k only while the mission structure depends on the seed. Upload regions sit
in the half of the lattice away from the start, which keeps the instance
non-trivial. The map pairs with ``tasks/mission.dra``.
"""

from __future__ import annotations

import random

LEGEND = ("v: vd", "d: rd", "u: up", "r: ri", "n: un")
START = "start 2,1 1,1"

# Share of marker sites per observation (the rest stay plain road).
SHARES = (("n", 0.35), ("v", 0.04), ("d", 0.04), ("r", 0.04))


def lattice_map(k: int, seed: int) -> str:
    """Map text of the k x k road lattice for ``seed`` (same inputs, same text)."""
    if k < 3:
        raise ValueError("lattice size k must be at least 3")
    n = 3 * k
    grid = [["#"] * n for _ in range(n)]
    for r in range(1, n - 1):
        for c in range(1, n - 1):
            if r % 3 == 1 or c % 3 == 1:
                grid[r][c] = "."
    # One site per corridor segment: the cell right after each junction.
    sites = [(r, c + 1) for r in range(1, n - 1, 3) for c in range(1, n - 4, 3)]
    sites += [(r + 1, c) for c in range(1, n - 1, 3) for r in range(1, n - 4, 3)]
    # Keep the start block (the corner bend and its two corridors) plain.
    sites = [(r, c) for r, c in sites if r > 3 or c > 3]
    rng = random.Random(f"lattice-{k}-{seed}")
    rng.shuffle(sites)

    far = [s for s in sites if s[0] + s[1] >= n]
    uploads = far[:max(1, k // 4)]
    for r, c in uploads:
        grid[r][c] = "u"
    taken = set(uploads)
    rest = [s for s in sites if s not in taken]
    pos = 0
    for marker, share in SHARES:
        count = max(1, round(share * len(sites)))
        for r, c in rest[pos:pos + count]:
            grid[r][c] = marker
        pos += count
    rows = ["".join(row) for row in grid]
    return "\n".join(rows + ["legend", *LEGEND, START]) + "\n"
