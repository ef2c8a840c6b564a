"""The simulation driver: executes workload op streams on the modelled
platform.

One :class:`Simulation` owns the full stack for one experiment run: host
kernel, one VM, guest kernel (default or PTEMagnet), the machine (cores +
caches), and a set of :class:`WorkloadRun` instances colocated inside the
VM. Every :class:`~repro.workloads.base.AccessOp` goes through the real
translation path: TLB lookup, then (on miss) a nested 2D page walk, then
(on a guest-PT hole) the guest kernel's page-fault path -- default or
PTEMagnet -- then the data access through the shared cache hierarchy.
Execution time is the sum of modelled cycles, the quantity the paper's
Figures 6/7 compare between kernels.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional

from ..config import PlatformConfig
from ..errors import SimulationError
from ..metrics.counters import PerfCounters
from ..metrics.fragmentation import (
    fragmented_group_fraction,
    host_pt_fragmentation,
)
from ..obs.profile import PROFILER
from ..obs.sampler import PeriodicSampler
from ..os.kernel import GuestKernel
from ..os.process import Process
from ..pagetable.pte import COW
from ..units import BLOCKS_PER_PAGE, CACHE_BLOCK_SHIFT, PAGE_SHIFT
from ..virt.hypervisor import HostKernel
from ..virt.nested import NestedWalker
from ..workloads.base import (
    AccessOp,
    BrkOp,
    FreeOp,
    MemoryOp,
    MmapOp,
    PhaseOp,
    Workload,
    WorkloadPhase,
)
from .machine import CoreContext, Machine
from .results import RunResult, SimulationResult
from .scheduler import RoundRobinScheduler


class WorkloadRun:
    """One workload executing inside the simulated VM on its own core."""

    def __init__(
        self,
        workload: Workload,
        process: Process,
        core: CoreContext,
        walker: NestedWalker,
        kernel: GuestKernel,
        weight: int = 1,
    ) -> None:
        self.workload = workload
        self.process = process
        self.core = core
        self.walker = walker
        self.kernel = kernel
        self.weight = weight
        self.counters = PerfCounters()
        self.measuring = False
        #: When True, accesses skip the TLB/walk/cache models and only
        #: exercise the page-fault path. Used to fast-forward co-runner
        #: pre-churn, whose only observable effect is buddy-allocator
        #: state; faults still arrive in exactly the same order.
        self.fast_forward = False
        self.current_phase: Optional[WorkloadPhase] = None
        self.ops_executed = 0
        self._regions: Dict[str, object] = {}
        self._iterator = workload.ops()
        #: Plain attribute rather than a property: the scheduler and the
        #: turn loops read it several times per turn, and a slice is only
        #: a couple of ops. Flipped by step() on stream exhaustion and by
        #: stop().
        self.finished = False

    # ------------------------------------------------------------------ #
    # Scheduling interface
    # ------------------------------------------------------------------ #

    def stop(self) -> None:
        """Stop executing this run (the experiment killed the co-runner)."""
        self.finished = True

    def step(self, max_ops: int) -> int:
        """Execute up to ``max_ops`` operations; returns how many ran.

        Yields the remainder of the slice at a phase boundary so phase
        transitions are precise -- experiment harnesses change measurement
        and fidelity settings exactly at those points.
        """
        executed = 0
        iterator = self._iterator
        while executed < max_ops and not self.finished:
            try:
                op = next(iterator)
            except StopIteration:
                self.finished = True
                break
            self._execute(op)
            executed += 1
            if isinstance(op, PhaseOp):
                break
        self.ops_executed += executed
        return executed

    # ------------------------------------------------------------------ #
    # Measurement control
    # ------------------------------------------------------------------ #

    def start_measurement(self) -> None:
        """Zero counters and begin attributing work to them.

        Mirrors the paper's methodology of measuring from a defined point
        (e.g. after the allocation phase in §3.3).
        """
        self.counters = PerfCounters()
        self.core.hierarchy.reset_counters()
        self.measuring = True

    def finalize_measurement(self) -> None:
        """Capture stream counters and fragmentation state into counters."""
        gpt = self.core.hierarchy.counters("gpt")
        hpt = self.core.hierarchy.counters("hpt")
        data = self.core.hierarchy.counters("data")
        self.counters.gpt_accesses = gpt.accesses
        self.counters.gpt_memory_accesses = gpt.memory_accesses
        self.counters.hpt_accesses = hpt.accesses
        self.counters.hpt_memory_accesses = hpt.memory_accesses
        self.counters.data_memory_accesses = data.memory_accesses
        self.counters.host_pt_fragmentation = host_pt_fragmentation(self.process)
        self.counters.fragmented_group_fraction = fragmented_group_fraction(
            self.process
        )
        self.measuring = False

    # ------------------------------------------------------------------ #
    # Operation execution
    # ------------------------------------------------------------------ #

    def _execute(self, op: MemoryOp) -> None:
        if isinstance(op, AccessOp):
            self._access(op)
        elif isinstance(op, MmapOp):
            self._regions[op.region] = self.kernel.mmap(
                self.process, op.npages, op.region
            )
        elif isinstance(op, BrkOp):
            self._regions[op.region] = self.kernel.brk(
                self.process, op.grow_pages
            )
        elif isinstance(op, FreeOp):
            self._free(op)
        elif isinstance(op, PhaseOp):
            self.current_phase = op.phase
        else:  # pragma: no cover - defensive
            # The error path ends the run; a valid stream never gets here.
            raise SimulationError(f"unknown op {op!r}")

    def _vpn_for(self, op: AccessOp) -> int:
        vma = self._regions.get(op.region)
        if vma is None:
            raise SimulationError(
                f"{self.workload.name}: access to unmapped region {op.region!r}"
            )
        if not 0 <= op.page < vma.npages:
            raise SimulationError(
                f"{self.workload.name}: page {op.page} outside region "
                f"{op.region!r} ({vma.npages} pages)"
            )
        return vma.start_vpn + op.page

    def _access(self, op: AccessOp) -> None:
        vpn = self._vpn_for(op)
        if self.fast_forward:
            if self.process.page_table.lookup(vpn) is None:
                outcome = self.kernel.handle_fault(self.process, vpn, op.write)
                # Keep the host dimension consistent: the first real access
                # would have EPT-faulted the frame in; do it eagerly here.
                self.walker.host.ensure_backed(self.walker.vm, outcome.frame)
            return
        core = self.core
        cycles = core.config.base_cycles_per_access
        hfn = core.tlb.lookup(vpn)
        if hfn is None:
            if self.measuring:
                self.counters.tlb_misses += 1
            hfn, walk_extra = self._translate(vpn, op.write)
            cycles += walk_extra
        data_addr = (hfn << PAGE_SHIFT) | (
            (op.block & (BLOCKS_PER_PAGE - 1)) << CACHE_BLOCK_SHIFT
        )
        data_latency = core.hierarchy.access(data_addr)
        cycles += data_latency
        if PROFILER.enabled:
            # Cycle attribution is the profiler's job: the guard keeps
            # these module-state updates off unprofiled runs entirely.
            PROFILER.add(
                ("access", "data", core.hierarchy.last_outcome.name.lower()),
                data_latency,
            )
            PROFILER.add(
                ("access", "issue"), core.config.base_cycles_per_access
            )
        if self.measuring:
            self.counters.accesses += 1
            self.counters.cycles += cycles

    def _translate(self, vpn: int, write: bool) -> tuple:
        """TLB-miss path: nested walk, fault handling, COW break."""
        cycles = 0
        if write:
            pte = self.process.page_table.lookup(vpn)
            if pte is not None and pte & COW:
                outcome = self.kernel.handle_fault(self.process, vpn, write=True)
                cycles += outcome.cycles
                if self.measuring:
                    self.counters.faults += 1
                    self.counters.fault_cycles += outcome.cycles
                    self.counters.fault_latencies.record(outcome.cycles)
        result = self.walker.walk(vpn)
        if result.faulted:
            outcome = self.kernel.handle_fault(self.process, vpn, write)
            cycles += outcome.cycles
            if self.measuring:
                self.counters.faults += 1
                self.counters.fault_cycles += outcome.cycles
                self.counters.fault_latencies.record(outcome.cycles)
            result = self.walker.walk(vpn)
            if result.faulted:  # pragma: no cover - defensive
                raise SimulationError(f"walk still faulting after fault at {vpn:#x}")
        cycles += result.cycles
        if self.measuring:
            self.counters.walk_cycles += result.cycles
            self.counters.host_walk_cycles += result.host_cycles
        self.core.tlb.insert(vpn, result.host_frame)
        return result.host_frame, cycles

    def _free(self, op: FreeOp) -> None:
        vma = self._regions.get(op.region)
        if vma is None:
            raise SimulationError(
                f"{self.workload.name}: free of unknown region {op.region!r}"
            )
        npages = op.npages or (vma.npages - op.start_page)
        self.kernel.munmap(self.process, vma.start_vpn + op.start_page, npages)
        if op.start_page == 0 and npages == vma.npages:
            del self._regions[op.region]


def _shoot_down(cores: Dict[int, CoreContext], pid: int, vpn: int) -> None:
    """Unmap observer: drop ``vpn`` from the core that runs ``pid``.

    :class:`Simulation` registers ``partial(_shoot_down, cores)`` with its
    guest kernel; the kernel calls it on every unmap or remap (the
    shootdown contract, docs/internals.md §13). Processes with no run,
    such as a fork child, have no core to shoot down.
    """
    core = cores.get(pid)
    if core is not None:
        core.invalidate_translation(vpn)


class Simulation:
    """A complete simulated platform hosting colocated workloads."""

    def __init__(self, platform: PlatformConfig) -> None:
        import random

        self.platform = platform
        rng = random.Random(platform.seed)
        self.host = HostKernel(platform.host)
        self.vm = self.host.create_vm(platform.guest.memory_bytes)
        self.kernel = GuestKernel(platform.guest, platform.machine, rng)
        self.machine = Machine(platform.machine)
        self.scheduler = RoundRobinScheduler()
        self.runs: List[WorkloadRun] = []
        self.turns = 0
        self._samplers: List[PeriodicSampler] = []
        #: pid -> the core its run executes on. The kernel's unmap
        #: observer holds this map, not the Simulation, so the kernel
        #: does not lead back here and refcounting frees a finished
        #: simulation whole (docs/internals.md §13, "Memory lifetime").
        self._cores_by_pid: Dict[int, CoreContext] = {}
        self.kernel.add_unmap_observer(
            partial(_shoot_down, self._cores_by_pid)
        )

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #

    def add_workload(
        self,
        workload: Workload,
        weight: int = 1,
        memory_limit_bytes: int = 0,
    ) -> WorkloadRun:
        """Colocate ``workload`` inside the VM on its own core."""
        process = self.kernel.create_process(workload.name, memory_limit_bytes)
        core = self.machine.new_core()
        walker = NestedWalker(
            guest_pt=process.page_table,
            vm=self.vm,
            host=self.host,
            hierarchy=core.hierarchy,
            guest_pwc=core.guest_pwc,
            host_pwc=core.host_pwc,
        )
        run = WorkloadRun(workload, process, core, walker, self.kernel, weight)
        self.runs.append(run)
        self._cores_by_pid[process.pid] = core
        self.scheduler.add(run)
        return run

    def add_sampler(self, sampler: PeriodicSampler) -> PeriodicSampler:
        """Register a :class:`~repro.obs.sampler.PeriodicSampler` to be
        driven from this simulation's turn loop."""
        self._samplers.append(sampler)
        return sampler

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #

    def turn(self) -> int:
        """One scheduler round plus a reclaim-daemon wakeup.

        The daemon wakes only below its watermark (§4.3), so the
        watermark is tested here, before the kernel gathers the PaRTs a
        pass would walk.

        Turn boundaries also drive any registered periodic samplers,
        which see post-reclaim state, so turn-cadence series match the
        legacy per-experiment sampling loops exactly.
        """
        executed = self.scheduler.turn()
        reclaimer = self.kernel.reclaimer
        if reclaimer is not None and reclaimer.under_pressure:
            self.kernel.run_reclaim()
        self.turns += 1
        if self._samplers:
            for sampler in self._samplers:
                sampler.on_turn()
        return executed

    def run_until_phase(
        self,
        run: WorkloadRun,
        phase: WorkloadPhase,
        max_turns: int = 1_000_000,
    ) -> None:
        """Advance all runs until ``run`` reaches ``phase``."""
        for _ in range(max_turns):
            if run.current_phase == phase or run.finished:
                return
            if self.turn() == 0:
                break
        raise SimulationError(
            f"{run.workload.name} never reached phase {phase} "
            f"(currently {run.current_phase})"
        )

    def run_until_finished(
        self, run: WorkloadRun, max_turns: int = 1_000_000
    ) -> None:
        """Advance all runs until ``run``'s op stream is exhausted."""
        for _ in range(max_turns):
            if run.finished:
                return
            if self.turn() == 0 and not run.finished:
                raise SimulationError(
                    f"{run.workload.name} stalled before finishing"
                )
        raise SimulationError(f"{run.workload.name} did not finish in budget")

    def stop(self, run: WorkloadRun) -> None:
        """Kill a run (stop a co-runner, as §3.3's methodology does)."""
        run.stop()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def result_for(self, run: WorkloadRun) -> RunResult:
        """Finalize and package one run's measurement."""
        run.finalize_measurement()
        return RunResult(
            name=run.workload.name,
            counters=run.counters,
            rss_pages=run.process.rss_pages,
            faults_total=run.process.faults,
            reservation_hits=run.process.reservation_hits,
            ops_executed=run.ops_executed,
        )

    def results(self) -> SimulationResult:
        """Package results for every run plus kernel/host statistics."""
        return SimulationResult(
            runs=[self.result_for(run) for run in self.runs],
            kernel_stats=self.kernel.stats,
            host_stats=self.host.stats,
            turns=self.turns,
        )
