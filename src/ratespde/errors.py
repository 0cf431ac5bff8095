"""Shared exception types.

Each class hands its constructor arguments to ``Exception.__init__``, so
an instance pickles and unpickles to an equal one; ``combine`` relies on
that to carry a component's failure out of a worker process.
"""

from __future__ import annotations


class GridTooLargeError(Exception):
    """A requested grid exceeds the configured node budget."""

    def __init__(self, points: int, cap: int):
        super().__init__(points, cap)
        self.points = points
        self.cap = cap

    def __str__(self) -> str:
        return f"grid with {self.points} nodes exceeds the cap of {self.cap}"


class ComponentSolveError(Exception):
    """A component-grid solve failed; identifies the offending level vector."""

    def __init__(self, levels: tuple[int, ...]):
        super().__init__(levels)
        self.levels = levels

    def __str__(self) -> str:
        return f"component grid {self.levels} failed"


class ConfigError(Exception):
    """A run configuration could not be parsed or validated."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message, line)
        self.message = message
        self.line = line

    def __str__(self) -> str:
        prefix = f"line {self.line}: " if self.line is not None else ""
        return prefix + self.message
