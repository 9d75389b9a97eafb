"""Reference optimal-fidelity values for deterministic unitary inversion.

Four-decimal reference values for the sequential and parallel programs,
shipped as a static dataset.  Every cell is judged by one rule: a computed
value passes when it lies within ``TOLERANCE`` = 1e-4 of its entry, one
unit in the table's last printed place, half for the entry's own rounding
and half for the solver's point value, which nothing certifies yet.
Parallel n=1 equals sequential n=1 (a single call admits no ordering), so
both tables list the same n=1 values.
"""

from __future__ import annotations

from dataclasses import dataclass

TOLERANCE = 1e-4

_SEQUENTIAL = {
    2: (0.5000, 0.7500, 0.9330, 1.0000, 1.0000),
    3: (0.2222, 0.3333, 0.4444, 0.5556, 0.6667),
    4: (0.1250, 0.1875, 0.2500, 0.3125, 0.3750),
    5: (0.0800, 0.1200, 0.1600, 0.2000, 0.2400),
    6: (0.0556, 0.0833, 0.1111, 0.1389, 0.1667),
}

_PARALLEL = {
    2: (0.5000, 0.6545, 0.7500, 0.8117, 0.8536),
    3: (0.2222, 0.3333, 0.4310, 0.5131, 0.5810),
    4: (0.1250, 0.1875, 0.2500, 0.3105, 0.3675),
    5: (0.0800, 0.1200, 0.1600, 0.2000, 0.2397),
    6: (0.0556, 0.0833, 0.1111, 0.1389, 0.1667),
}


@dataclass(frozen=True)
class ReferenceCell:
    value: float
    tolerance: float


def reference_cells() -> dict[tuple[str, int, int], ReferenceCell]:
    cells: dict[tuple[str, int, int], ReferenceCell] = {}
    for mode, table in (("seq", _SEQUENTIAL), ("par", _PARALLEL)):
        for d, row in table.items():
            for n, value in enumerate(row, start=1):
                cells[(mode, d, n)] = ReferenceCell(value, TOLERANCE)
    return cells
