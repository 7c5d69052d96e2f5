"""Resource budgets shared by the whole toolkit.

Every cap below bounds an exact computation, never its correctness: exceeding
a cap raises :class:`BudgetError` instead of silently truncating.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace


class BudgetError(ValueError):
    """A requested computation exceeds a configured budget."""


@dataclass(frozen=True)
class Budgets:
    plethysm_degree_cap: int = 10   # cap on |pi| * |mu| in plethysm expansion
    product_degree_cap: int = 16    # cap on |alpha| + |beta| in a Schur product
    weyl_dim_cap: int = 200         # cap on dim of an explicit Weyl-module model
    char_table_max_n: int = 14      # largest symmetric group S_n with a character table
    max_period: int = 4             # quasi-polynomial period search bound
    max_degree: int = 6             # quasi-polynomial degree bound
    holdout: int = 2                # trailing values reserved for fit verification
    hive_side_cap: int = 12         # side length of the triangular hive array
    magic_size_cap: int = 4         # n for n x n magic squares
    magic_weight_cap: int = 8       # weight r for magic squares
    stretch_k_cap: int = 20         # K of an LR stretch series k = 1..K
    series_k_cap: int = 64          # K of an Ehrhart series k = 1..K
    emit_n_cap: int = 1000          # largest n of the emitted obstruction family
    kempf_n_cap: int = 64           # n of the Kempf stability check

    @classmethod
    def from_json(cls, path: str) -> "Budgets":
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("budget config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown budget keys: {sorted(unknown)}")
        for key, value in sorted(raw.items()):
            if type(value) is not int or value < 1:
                raise ValueError(
                    f"budget {key} must be an integer >= 1, got {value!r}")
        return replace(cls(), **raw)


DEFAULT = Budgets()
