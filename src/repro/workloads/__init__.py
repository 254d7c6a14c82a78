"""Workload generators and external-tool environments for the experiments."""

from repro.workloads.prompts import PromptGenerator
from repro.workloads.tools import ToolEnvironment, AgentWorkload, AGENT_WORKLOADS
from repro.workloads.reasoning import ReasoningTask, make_arithmetic_tasks

__all__ = [
    "PromptGenerator",
    "ToolEnvironment",
    "AgentWorkload",
    "AGENT_WORKLOADS",
    "ReasoningTask",
    "make_arithmetic_tasks",
]
