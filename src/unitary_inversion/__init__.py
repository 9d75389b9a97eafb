"""Exact qubit-unitary inversion circuits and symmetry-reduced comb SDPs.

Importing the package loads none of its modules, so each import pays only
for what it names: ``tensor``, ``symmetric_group``, ``protocol`` and
``reference_tables`` need numpy alone, while ``sdp`` and ``comb_sdp`` load
scipy's linear algebra.
"""

__all__ = [
    "comb_sdp",
    "protocol",
    "reference_tables",
    "sdp",
    "symmetric_group",
    "tensor",
]
