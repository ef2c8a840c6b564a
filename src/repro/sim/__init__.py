"""Simulation engine: machine assembly, scheduling and the run driver."""

from .engine import Simulation, WorkloadRun
from .machine import CoreContext, Machine
from .results import RunResult, SimulationResult
from .scheduler import RoundRobinScheduler

__all__ = [
    "CoreContext",
    "Machine",
    "RoundRobinScheduler",
    "RunResult",
    "Simulation",
    "SimulationResult",
    "WorkloadRun",
]
