"""Result containers and table formatting for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class ExperimentResult:
    """Rows + metadata for one reproduced table or figure."""

    name: str
    description: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: What the rows were derived from (per-arm dicts: token outputs,
    #: counters), for the benchmark wrappers' identity and inertness
    #: assertions — re-running a fleet just to re-derive them would double
    #: the benchmark's wall-clock cost.  Not part of ``to_dict``.
    raw: Dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column_names(self) -> List[str]:
        names: List[str] = []
        for row in self.rows:
            for key in row:
                if key not in names:
                    names.append(key)
        return names

    def format_table(self) -> str:
        """Render the rows as a fixed-width text table (paper-style)."""
        columns = self.column_names()
        if not columns:
            return f"== {self.name} ==\n(no rows)"
        widths = {
            column: max(len(column), *(len(self._fmt(row.get(column))) for row in self.rows))
            for column in columns
        }
        lines = [f"== {self.name}: {self.description} =="]
        header = " | ".join(column.ljust(widths[column]) for column in columns)
        lines.append(header)
        lines.append("-+-".join("-" * widths[column] for column in columns))
        for row in self.rows:
            lines.append(
                " | ".join(self._fmt(row.get(column)).ljust(widths[column]) for column in columns)
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    @staticmethod
    def _fmt(value: Any) -> str:
        if value is None:
            return "x"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key_value: Any) -> Optional[Dict[str, Any]]:
        for row in self.rows:
            if row.get(key_column) == key_value:
                return row
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "rows": self.rows,
            "notes": self.notes,
        }
