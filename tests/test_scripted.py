"""Tests for ScriptedWorkload, BrkOp handling, and config validation."""

import pytest

from repro import PlatformConfig, Simulation
from repro.config import (
    CacheConfig,
    GuestConfig,
    HostConfig,
    MachineConfig,
    PwcConfig,
    TlbConfig,
)
from repro.core.policy import EnablementPolicy
from repro.errors import ConfigError
from repro.units import MB, PAGE_SIZE, RESERVED_BASE_FRAMES
from repro.workloads import (
    AccessOp,
    BrkOp,
    FreeOp,
    MmapOp,
    ScriptedWorkload,
)


def small_platform():
    return PlatformConfig(
        host=HostConfig(memory_bytes=64 * MB),
        guest=GuestConfig(memory_bytes=32 * MB),
    )


class TestScriptedWorkload:
    def test_iterable_source_replayable(self):
        w = ScriptedWorkload("s", [MmapOp("a", 4), AccessOp("a", 0)])
        assert list(w.ops()) == list(w.ops())
        assert w.footprint_pages == 4

    def test_footprint_derived_from_mmaps(self):
        w = ScriptedWorkload("s", [MmapOp("a", 4), MmapOp("b", 6)])
        assert w.footprint_pages == 10

    def test_callable_source_needs_footprint(self):
        with pytest.raises(ValueError):
            ScriptedWorkload("s", lambda: iter([]))

    def test_callable_source(self):
        def factory():
            yield MmapOp("a", 2)
            yield AccessOp("a", 0)

        w = ScriptedWorkload("s", factory, footprint_pages=2)
        assert len(list(w.ops())) == 2

    def test_touch_region_helper(self):
        w = ScriptedWorkload.touch_region("t", npages=5, sweeps=2)
        accesses = [op for op in w.ops() if isinstance(op, AccessOp)]
        assert len(accesses) == 10

    def test_touch_region_validation(self):
        with pytest.raises(ValueError):
            ScriptedWorkload.touch_region("t", npages=0)

    def test_runs_in_engine(self):
        sim = Simulation(small_platform())
        run = sim.add_workload(ScriptedWorkload.touch_region("t", 8))
        sim.run_until_finished(run)
        assert run.process.faults == 8


class TestBrkOp:
    def test_brk_region_usable(self):
        script = [
            BrkOp("heap", 8),
            *(AccessOp("heap", page, write=True) for page in range(8)),
            FreeOp("heap"),
        ]
        sim = Simulation(small_platform())
        run = sim.add_workload(ScriptedWorkload("b", script, footprint_pages=8))
        sim.run_until_finished(run)
        assert run.process.faults == 8
        assert run.process.rss_pages == 0

    def test_consecutive_brks_are_adjacent(self):
        script = [BrkOp("h1", 4), BrkOp("h2", 4)]
        sim = Simulation(small_platform())
        run = sim.add_workload(ScriptedWorkload("b", script, footprint_pages=8))
        sim.run_until_finished(run)
        h1 = run._regions["h1"]
        h2 = run._regions["h2"]
        assert h2.start_vpn == h1.end_vpn


class TestConfigValidation:
    def test_cache_config_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 0, 4, 1)
        with pytest.raises(ValueError):
            CacheConfig("x", 1024, 0, 1)

    def test_tlb_config_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            TlbConfig("x", 10, 4)

    def test_pwc_config_rejects_negative(self):
        with pytest.raises(ValueError):
            PwcConfig(-1)

    @pytest.mark.parametrize(
        "config, name, value",
        [
            (HostConfig, "memory_bytes", 1000),
            (HostConfig, "memory_bytes", RESERVED_BASE_FRAMES * PAGE_SIZE),
            (HostConfig, "pt_levels", 7),
            (GuestConfig, "memory_bytes", 1000),
            (GuestConfig, "memory_bytes", RESERVED_BASE_FRAMES * PAGE_SIZE),
            (GuestConfig, "pt_levels", 1),
            (GuestConfig, "reclaim_threshold", 1.5),
            (GuestConfig, "ptemagnet_reservation_order", 12),
            (GuestConfig, "vcpus", 0),
        ],
    )
    def test_out_of_range_field_fails_when_built(self, config, name, value):
        """The config itself rejects the value, before any Simulation
        component would, and the message names the field and value."""
        with pytest.raises(ConfigError) as excinfo:
            config(**{name: value})
        assert f"{config.__name__}.{name}={value!r}:" in str(excinfo.value)

    def test_one_page_above_reserved_frames_builds(self):
        """The smallest memory both configs accept still builds a
        simulation, with one frame beyond each kernel's reserved ones."""
        memory_bytes = (RESERVED_BASE_FRAMES + 1) * PAGE_SIZE
        sim = Simulation(
            PlatformConfig(
                host=HostConfig(memory_bytes=memory_bytes),
                guest=GuestConfig(memory_bytes=memory_bytes),
            )
        )
        assert sim.kernel.buddy.free_frames == 1
        # The host's one free frame holds the VM's host page-table root.
        assert sim.host.buddy.free_frames == 0

    def test_with_ptemagnet_preserves_fields(self):
        guest = GuestConfig(
            memory_bytes=64 * MB,
            reclaim_threshold=0.5,
            ptemagnet_reservation_order=4,
            pt_levels=5,
        )
        toggled = guest.with_ptemagnet(True)
        assert toggled.ptemagnet_enabled
        assert toggled.reclaim_threshold == 0.5
        assert toggled.ptemagnet_reservation_order == 4
        assert toggled.pt_levels == 5

    def test_platform_with_ptemagnet(self):
        platform = PlatformConfig()
        assert not platform.guest.ptemagnet_enabled
        assert platform.with_ptemagnet(True).guest.ptemagnet_enabled

    def test_frames_properties(self):
        assert HostConfig(memory_bytes=4 * MB).frames == 1024
        assert GuestConfig(memory_bytes=4 * MB).frames == 1024

    def test_table2_rows_reflect_kernel(self):
        rows = dict(PlatformConfig().with_ptemagnet(True).table2_rows())
        assert rows["Guest kernel"] == "PTEMagnet"

    def test_machine_describe(self):
        text = MachineConfig().describe()
        assert "LLC" in text and "STLB" in text


class TestEnablementPolicy:
    def test_zero_threshold_enables_all(self):
        policy = EnablementPolicy(0)
        assert policy.enabled_for(0)
        assert policy.enabled_for(1)

    def test_threshold_gates_small_limits(self):
        policy = EnablementPolicy(16 * MB)
        assert not policy.enabled_for(1 * MB)
        assert policy.enabled_for(16 * MB)
        assert policy.enabled_for(64 * MB)

    def test_unlimited_treated_as_big(self):
        policy = EnablementPolicy(16 * MB)
        assert policy.enabled_for(0)
