"""Tests for the timing models: Rocket-like emulator, caches, Gem5 atomic CPU."""

import pytest

from repro.asm.builder import AsmBuilder
from repro.asm.program import TOHOST_ADDRESS
from repro.errors import ConfigurationError
from repro.gem5.atomic_cpu import AtomicSimpleCPU
from repro.gem5.se_mode import Gem5Config, SyscallEmulationRunner
from repro.rocc.decimal_accel import DecimalAccelerator
from repro.rocket.cache import Cache
from repro.rocket.config import CacheConfig, RocketConfig
from repro.rocket.core import RocketEmulator


def _program(body):
    """Small program ending with an HTIF exit."""
    builder = AsmBuilder()
    builder.data()
    builder.label("out")
    builder.dword(0, 0, 0, 0)
    builder.text()
    builder.label("_start")
    builder.la("a5", "out")
    body(builder)
    builder.li("t5", TOHOST_ADDRESS)
    builder.li("t6", 1)
    builder.emit("sd", "t6", "t5", 0)
    builder.label("spin")
    builder.j("spin")
    return builder.link()


def _loop_program(extra=None, iterations=200):
    def body(b):
        b.li("t0", 0)
        b.li("t1", iterations)
        b.label("loop")
        if extra is not None:
            extra(b)
        b.emit("addi", "t0", "t0", 1)
        b.branch("bne", "t0", "t1", "loop")

    return _program(body)


class TestCacheModel:
    def test_repeated_access_hits(self):
        cache = Cache(CacheConfig(sets=4, ways=2, line_bytes=16, miss_penalty_cycles=10))
        assert cache.access(0x100) == 10
        assert cache.access(0x104) == 0   # same line
        assert cache.access(0x100) == 0
        assert cache.stats.misses == 1 and cache.stats.hits == 2

    def test_eviction_with_random_replacement_is_seeded(self):
        import random

        def run(seed):
            cache = Cache(
                CacheConfig(sets=1, ways=2, line_bytes=16, miss_penalty_cycles=10),
                rng=random.Random(seed),
            )
            pattern = [0x000, 0x100, 0x200, 0x000, 0x100, 0x200] * 10
            return [cache.access(address) for address in pattern]

        assert run(1) == run(1)

    def test_lru_replacement(self):
        cache = Cache(
            CacheConfig(sets=1, ways=2, line_bytes=16, miss_penalty_cycles=10,
                        replacement="lru")
        )
        cache.access(0x000)
        cache.access(0x100)
        cache.access(0x000)        # 0x100 is now LRU
        cache.access(0x200)        # evicts 0x100
        assert cache.access(0x000) == 0
        assert cache.access(0x100) == 10

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(sets=3)
        with pytest.raises(ConfigurationError):
            CacheConfig(replacement="fifo")
        assert CacheConfig().size_bytes == 64 * 4 * 64


class TestRocketConfig:
    def test_overrides(self):
        config = RocketConfig().with_overrides(div_latency_cycles=10)
        assert config.div_latency_cycles == 10
        with pytest.raises(ConfigurationError):
            RocketConfig(branch_penalty_cycles=-1)


class TestRocketEmulator:
    def test_cycles_exceed_instructions(self):
        result = RocketEmulator(_loop_program()).run()
        assert result.exit_code == 0
        assert result.cycles > result.instructions_retired
        assert result.cycles == result.sw_cycles + result.hw_cycles
        assert result.hw_cycles == 0

    def test_deterministic_given_seed(self):
        image = _loop_program()
        first = RocketEmulator(image, config=RocketConfig(seed=5)).run()
        second = RocketEmulator(image, config=RocketConfig(seed=5)).run()
        assert first.cycles == second.cycles

    def test_division_latency_visible(self):
        def divide(b):
            b.emit("divu", "t2", "t1", "t1")

        fast = RocketEmulator(
            _loop_program(divide), config=RocketConfig(div_latency_cycles=2)
        ).run()
        slow = RocketEmulator(
            _loop_program(divide), config=RocketConfig(div_latency_cycles=40)
        ).run()
        assert slow.cycles > fast.cycles + 150 * 30

    def test_branch_penalty_visible(self):
        cheap = RocketEmulator(
            _loop_program(), config=RocketConfig(branch_penalty_cycles=0)
        ).run()
        costly = RocketEmulator(
            _loop_program(), config=RocketConfig(branch_penalty_cycles=3)
        ).run()
        assert costly.cycles > cheap.cycles

    def test_load_use_stall(self):
        def loaduse(b):
            b.emit("ld", "t2", "a5", 0)
            b.emit("addi", "t3", "t2", 1)   # immediately dependent

        def loadfar(b):
            b.emit("ld", "t2", "a5", 0)
            b.emit("addi", "t4", "t1", 1)   # independent

        dependent = RocketEmulator(_loop_program(loaduse)).run()
        independent = RocketEmulator(_loop_program(loadfar)).run()
        assert dependent.cycles > independent.cycles

    def test_rdcycle_reads_model_cycles(self):
        def body(b):
            b.rdcycle("t0")
            b.emit("divu", "t2", "t0", "t0")
            b.rdcycle("t1")
            b.emit("sub", "t2", "t1", "t0")
            b.emit("sd", "t2", "a5", 0)

        result = RocketEmulator(_program(body), config=RocketConfig(div_latency_cycles=30)).run()
        assert result.read_dword("out") >= 30

    def test_rocc_cycles_attributed_to_hw(self):
        def body(b):
            b.rocc("CLR_ALL")
            b.li("t0", 0x123)
            b.rocc("WR", rd=0, rs1="t0", rs2=1, xd=False, xs1=True, xs2=False)
            b.rocc("RD", rd="t1", rs1=0, rs2=1, xd=True, xs1=False, xs2=False)
            b.emit("sd", "t1", "a5", 0)

        result = RocketEmulator(_program(body), accelerator=DecimalAccelerator()).run()
        assert result.read_dword("out") == 0x123
        assert result.rocc_commands == 3
        assert result.hw_cycles > 0
        assert result.cycles_per_instruction > 1.0

    def test_seconds_conversion(self):
        result = RocketEmulator(_loop_program()).run()
        assert result.seconds(1_000_000_000) == pytest.approx(result.cycles / 1e9)


class TestGem5Atomic:
    def test_one_cycle_per_instruction(self):
        image = _loop_program()
        result = AtomicSimpleCPU(image, frequency_hz=1_000_000).run()
        assert result.ticks == result.instructions_retired
        assert result.simulated_seconds == pytest.approx(result.ticks / 1e6)

    def test_se_runner(self):
        runner = SyscallEmulationRunner(Gem5Config(frequency_hz=10 ** 9))
        result = runner.run_binary(_loop_program())
        assert result.exit_code == 0 and result.frequency_hz == 10 ** 9

    def test_se_runner_rejects_unknown_cpu(self):
        with pytest.raises(ConfigurationError):
            SyscallEmulationRunner(Gem5Config(cpu_type="O3CPU"))
