"""Machine-readable verdict reports for the command-line front end."""
from __future__ import annotations

import json
from dataclasses import dataclass, field


EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_UNDECIDED = 2


@dataclass
class Report:
    """One command's outcome: verdicts, witnesses, methods, and timing."""

    command: str
    group_name: str | None = None
    degree: int | None = None
    order: int | None = None
    verdicts: dict[str, bool | None] = field(default_factory=dict)
    witnesses: dict[str, str] = field(default_factory=dict)
    methods: dict[str, str] = field(default_factory=dict)
    tables: dict[str, list] = field(default_factory=dict)
    elapsed_s: float = 0.0
    error: str | None = None

    @property
    def exit_code(self) -> int:
        if self.error is not None:
            return EXIT_UNDECIDED
        values = list(self.verdicts.values())
        if any(v is None for v in values):
            return EXIT_UNDECIDED
        if any(v is False for v in values):
            return EXIT_FAILS
        return EXIT_HOLDS

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "group": {
                "name": self.group_name,
                "degree": self.degree,
                "order": self.order,
            },
            "verdicts": self.verdicts,
            "witnesses": self.witnesses,
            "methods": self.methods,
            "tables": self.tables,
            "elapsed_s": round(self.elapsed_s, 3),
            "error": self.error,
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        if self.group_name is not None:
            lines.append(
                f"group: {self.group_name} (degree {self.degree}, order {self.order})"
            )
        for key, value in self.verdicts.items():
            status = {True: "holds", False: "FAILS", None: "undecided"}[value]
            method = self.methods.get(key)
            suffix = f"  [{method}]" if method else ""
            lines.append(f"{key}: {status}{suffix}")
            if key in self.witnesses:
                lines.append(f"  witness: {self.witnesses[key]}")
        for key, rows in self.tables.items():
            lines.append(f"{key}:")
            lines.extend(f"  {row}" for row in rows)
        if self.error:
            lines.append(f"error: {self.error}")
        lines.append(f"elapsed: {self.elapsed_s:.3f}s")
        return "\n".join(lines)
