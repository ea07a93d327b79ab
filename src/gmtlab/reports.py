"""Tabular scan reports shared by the diagnostic modules and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ScanReport:
    """Result of a per-scale or per-epsilon diagnostic.

    ``columns`` maps column name to a list of values (all the same length,
    typically floats); ``verdict`` is an optional classification string;
    ``meta`` carries auxiliary scalars (gap ratios, flags, limits).
    """

    columns: dict[str, list]
    verdict: str | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged scan report: column lengths {lengths}")

    @property
    def names(self):
        return list(self.columns.keys())

    def __len__(self):
        for v in self.columns.values():
            return len(v)
        return 0

    def rows(self):
        """Rows in column order, one tuple per scan step."""
        cols = [self.columns[n] for n in self.names]
        return list(zip(*cols))
