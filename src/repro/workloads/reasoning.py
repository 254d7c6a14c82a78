"""Reasoning-task generators for the deliberate prompting strategies (§7.2).

The paper uses simplified versions of the original papers' tasks; this
module generates the arithmetic problems of Tree-of-Thought /
Recursion-of-Thought, seeded so every serving system sees the same task
instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np


@dataclass(frozen=True)
class ReasoningTask:
    """One reasoning problem: a prompt plus (for arithmetic) the answer."""

    kind: str
    prompt: str
    answer: str = ""


def make_arithmetic_tasks(count: int, seed: int = 0, depth: int = 3) -> List[ReasoningTask]:
    """Nested arithmetic expressions (ToT / RoT style problems)."""
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(count):
        expression = str(int(rng.integers(1, 10)))
        for _ in range(depth):
            operator = rng.choice(["+", "*", "-"])
            operand = int(rng.integers(1, 10))
            expression = f"({expression} {operator} {operand})"
        answer = str(eval(expression))  # noqa: S307 - generated arithmetic only
        tasks.append(
            ReasoningTask(
                kind="arithmetic",
                prompt=f"Solve step by step: {expression} = ",
                answer=answer,
            )
        )
    return tasks

