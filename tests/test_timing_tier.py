"""Cycle-identity tests for the compiled timing tier (``repro.rocket.timing``).

The Rocket emulator's compiled timing spans must be *bit-invisible*: with the
tier on, every architectural register, the pc, the retired-instruction count,
the cycle total, both caches' hit/miss statistics and the RoCC command count
must equal the interpreted (``timing_tier=False``) model's — on every program,
under every configuration, including mid-run instruction-limit exhaustion and
self-modifying-code deoptimisation.  These tests run the two models over the
same image and compare everything.

Also covered here: the warm start that rides along with the tier
(``RocketEmulator.reset`` and ``BatchRunner.acquire_timed`` reusing a warm
timing compiler across runs), pinned bit-identical to a cold build.
"""

import pytest

from repro.asm.builder import AsmBuilder
from repro.asm.program import TOHOST_ADDRESS
from repro.core.solution import standard_solutions
from repro.errors import SimulationError
from repro.rocket.config import CacheConfig, RocketConfig
from repro.rocket.core import RocketEmulator
from repro.sim.batch import BatchRunner
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program
from tests.test_pipeline_accel import _accelerator, _all_funct_program

#: Small cache geometry that forces evictions (and therefore consults the
#: replacement PRNG) even on tiny programs.
_TINY_CACHES = dict(
    icache=CacheConfig(sets=4, ways=2, line_bytes=16, miss_penalty_cycles=7),
    dcache=CacheConfig(sets=4, ways=2, line_bytes=16, miss_penalty_cycles=9),
)


def _run_pair(image, make_accel=None, config=None, limit=None):
    """Run timing-tier and interpreted emulators; return both (+ errors)."""
    out = []
    for timing in (True, False):
        emulator = RocketEmulator(
            image,
            accelerator=make_accel() if make_accel is not None else None,
            config=config if config is not None else RocketConfig(),
            timing_tier=timing,
        )
        if limit is not None:
            emulator.max_instructions = limit
        try:
            emulator.run()
            error = None
        except SimulationError as raised:
            error = raised
        out.append((emulator, error))
    return out


def _assert_identical(image, make_accel=None, config=None, limit=None):
    (fast, fast_err), (slow, slow_err) = _run_pair(
        image, make_accel=make_accel, config=config, limit=limit
    )
    assert (fast_err is None) == (slow_err is None)
    assert fast.hart.pc == slow.hart.pc
    assert fast.hart.regs == slow.hart.regs
    assert fast.instructions_retired == slow.instructions_retired
    assert fast.cycle == slow.cycle
    assert fast.sw_cycles == slow.sw_cycles
    assert fast.hw_cycles == slow.hw_cycles
    assert fast.rocc_commands == slow.rocc_commands
    for cache in ("icache", "dcache"):
        fstats = getattr(fast, cache).stats
        sstats = getattr(slow, cache).stats
        assert (fstats.accesses, fstats.hits, fstats.misses) == (
            sstats.accesses, sstats.hits, sstats.misses
        ), cache
    assert {
        page: bytes(data) for page, data in fast.memory._pages.items()
    } == {
        page: bytes(data) for page, data in slow.memory._pages.items()
    }
    # The interpreted model never compiles; the fast model accounts every
    # retired instruction to exactly one of its two tiers.
    assert slow.timing_spans == 0
    assert (
        fast.timing_compiled_instructions + fast.timing_interpreted_instructions
        == fast.instructions_retired
    )
    return fast, slow


def _exit_sequence(builder):
    builder.li("t5", TOHOST_ADDRESS)
    builder.li("t6", 1)
    builder.emit("sd", "t6", "t5", 0)
    builder.label("spin")
    builder.j("spin")


def _rv64im_edges_program(iterations=120):
    """A hot loop over RV64IM edge cases: div/rem by zero, INT64_MIN / -1,
    signed/unsigned 32-bit narrowing, every load/store width, taken and
    untaken branches, jal/jalr — enough arrivals that the loop body and its
    continuations all earn compiled timing spans.
    """
    builder = AsmBuilder()
    builder.data()
    builder.label("buf")
    builder.dword(0, 0, 0, 0, 0, 0, 0, 0)
    builder.text()
    builder.label("_start")
    builder.la("s0", "buf")
    builder.li("s1", 0)                      # loop counter
    builder.li("s2", iterations)
    builder.li("s3", 0)                      # checksum
    builder.label("loop")
    # Divider edges: x / 0, INT64_MIN / -1, and a plain pair.
    builder.li("t0", -(1 << 63))
    builder.li("t1", -1)
    builder.emit("div", "t2", "t0", "t1")    # overflow case -> INT64_MIN
    builder.emit("rem", "t3", "t0", "t1")    # -> 0
    builder.emit("add", "s3", "s3", "t2")
    builder.li("t1", 0)
    builder.emit("divu", "t2", "s1", "t1")   # /0 -> all ones
    builder.emit("remu", "t3", "s1", "t1")   # /0 -> dividend
    builder.emit("add", "s3", "s3", "t3")
    # 32-bit narrowing and multiplier forms.
    builder.emit("mul", "t2", "s1", "s3")
    builder.emit("mulhu", "t3", "s3", "s3")
    builder.emit("divw", "t4", "s3", "s2")
    builder.emit("remw", "t5", "s3", "s2")
    builder.emit("addw", "s3", "t4", "t5")
    builder.emit("add", "s3", "s3", "t2")
    builder.emit("add", "s3", "s3", "t3")
    # Every store width, then load them back (signed and unsigned).
    builder.emit("sd", "s3", "s0", 0)
    builder.emit("sw", "s3", "s0", 8)
    builder.emit("sh", "s3", "s0", 16)
    builder.emit("sb", "s3", "s0", 24)
    builder.emit("ld", "t0", "s0", 0)
    builder.emit("lw", "t1", "s0", 8)
    builder.emit("lwu", "t2", "s0", 8)
    builder.emit("lh", "t3", "s0", 16)
    builder.emit("lhu", "t4", "s0", 16)
    builder.emit("lb", "t5", "s0", 24)
    builder.emit("lbu", "t6", "s0", 24)
    builder.emit("add", "s3", "t1", "t2")
    builder.emit("add", "s3", "s3", "t3")
    builder.emit("add", "s3", "s3", "t5")
    # A data-dependent (unbiased-ish) branch plus jal/jalr control flow.
    builder.emit("andi", "t0", "s1", 1)
    builder.branch("beq", "t0", "x0", "even")
    builder.emit("xori", "s3", "s3", 0x55)
    builder.label("even")
    builder.jal("ra", "leaf")
    builder.emit("addi", "s1", "s1", 1)
    builder.branch("bltu", "s1", "s2", "loop")
    builder.emit("sd", "s3", "s0", 32)
    _exit_sequence(builder)
    builder.label("leaf")
    builder.emit("addi", "s3", "s3", 3)
    builder.emit("jalr", "x0", "ra", 0)
    return builder.link()


class TestLockstepCycleIdentity:
    def test_rv64im_edges(self):
        fast, _ = _assert_identical(_rv64im_edges_program())
        assert fast.timing_spans > 0          # the loop actually compiled
        assert fast.timing_compiled_instructions > 0

    def test_rv64im_edges_tiny_caches(self):
        config = RocketConfig(**_TINY_CACHES)
        _assert_identical(_rv64im_edges_program(), config=config)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2019, 987654321])
    def test_cache_replacement_seeds(self, seed):
        config = RocketConfig(seed=seed, **_TINY_CACHES)
        _assert_identical(_rv64im_edges_program(), config=config)

    @pytest.mark.parametrize("fmt", ["decimal64", "decimal128"])
    def test_all_thirteen_rocc_funct_codes(self, fmt):
        """Every Table II funct code — including the DEC_ADDC/DEC_SUBB
        carry/borrow chains — interleaved with compiled spans."""
        image = _all_funct_program()
        _assert_identical(
            image,
            make_accel=lambda: _accelerator(fmt, include_multiplier=True),
        )

    @pytest.mark.parametrize("fmt", ["decimal64", "decimal128"])
    def test_method1_program_both_formats(self, fmt):
        solution = standard_solutions()[SolutionKind.METHOD1]
        config = TestProgramConfig(
            solution=SolutionKind.METHOD1,
            precision=TestProgramConfig.precision_for_format(fmt),
            num_samples=12,
            seed=2018,
        )
        program = build_test_program(config)
        # Full-memory equality (result buffers included) is asserted by
        # _assert_identical's page comparison.
        _assert_identical(
            program.image, make_accel=lambda: solution.make_accelerator(fmt)
        )

    @pytest.mark.parametrize("fmt", ["decimal64", "decimal128"])
    @pytest.mark.parametrize("depth, width", [(1, 1), (4, 2)])
    def test_method1_spans_start_after_rocc_commands(self, fmt, depth, width):
        """The pc after a RoCC command starts a timing span, so Method-1's
        straight-line code between commands compiles, and cycles stay
        identical with a blocking and with a staged dual-issue accelerator."""
        config = TestProgramConfig(
            solution=SolutionKind.METHOD1,
            precision=TestProgramConfig.precision_for_format(fmt),
            num_samples=12,
            seed=2018,
        )
        image = build_test_program(config).image
        fast, _ = _assert_identical(
            image,
            make_accel=lambda: _accelerator(fmt, depth=depth, width=width),
        )
        text_base, _ = image.segment_range(".text")
        assert any(
            head - 4 >= text_base
            and fast.executor.fetch_decode(head - 4).mnemonic == "rocc"
            for head in fast._timing_sources
        )

    def test_pipelined_accelerator_d2w1(self):
        """Staged pipeline (depth 2, width 1): occupancy bookkeeping must be
        identical whether commands issue from a span exit or the loop."""
        image = _all_funct_program()
        _assert_identical(
            image,
            make_accel=lambda: _accelerator(
                "decimal64", depth=2, width=1, include_multiplier=True
            ),
        )

    def test_software_solution_program(self):
        config = TestProgramConfig(
            solution=SolutionKind.SOFTWARE, num_samples=16, seed=2018
        )
        program = build_test_program(config)
        fast, _ = _assert_identical(program.image)
        assert fast.timing_spans > 0

    @pytest.mark.parametrize("limit", [37, 61, 97, 150, 333, 1021, 4096])
    def test_fuel_exhaustion_mid_run(self, limit):
        """Hitting max_instructions must leave both models in the same state
        — same pc, same registers, same cycle count — no matter where inside
        a compiled span the budget would have run out."""
        image = _rv64im_edges_program()
        (fast, fast_err), (slow, slow_err) = _run_pair(image, limit=limit)
        assert isinstance(fast_err, SimulationError)
        assert isinstance(slow_err, SimulationError)
        assert fast.instructions_retired == slow.instructions_retired == limit
        assert fast.hart.pc == slow.hart.pc
        assert fast.hart.regs == slow.hart.regs
        assert fast.cycle == slow.cycle

    def test_lru_caches_disable_the_tier(self):
        """LRU replacement is outside the span compiler's modelled state; the
        tier must quietly stay off and the emulator stays correct."""
        config = RocketConfig(
            icache=CacheConfig(replacement="lru"),
            dcache=CacheConfig(replacement="lru"),
        )
        fast, _ = _assert_identical(_rv64im_edges_program(), config=config)
        assert not fast.timing_tier
        assert fast.timing_spans == 0


def _smc_program(iterations=160, patch_at=120):
    """Hot loop that, on iteration ``patch_at``, rewrites one of its own
    instructions (with identical bytes, so architectural results do not
    change) — forcing a mid-span self-modifying-code deopt after the span
    has long been compiled.
    """
    builder = AsmBuilder()
    builder.data()
    builder.label("buf")
    builder.dword(0, 0)
    builder.text()
    builder.label("_start")
    builder.la("s0", "buf")
    builder.li("s1", 0)
    builder.li("s2", iterations)
    builder.li("s4", patch_at)
    builder.la("s5", "patchme")
    builder.label("loop")
    builder.label("patchme")
    builder.emit("addi", "s3", "s3", 1)
    builder.emit("sd", "s3", "s0", 0)
    builder.branch("bne", "s1", "s4", "nopatch")
    builder.emit("lwu", "t0", "s5", 0)        # read the instruction word...
    builder.emit("sw", "t0", "s5", 0)         # ...and store it back (SMC)
    builder.label("nopatch")
    builder.emit("addi", "s1", "s1", 1)
    builder.branch("bltu", "s1", "s2", "loop")
    _exit_sequence(builder)
    return builder.link()


class TestDeoptimisation:
    def test_smc_deopt_keeps_cycles_identical(self):
        fast, slow = _assert_identical(_smc_program())
        assert fast.timing_deopts >= 1
        assert fast.cycle == slow.cycle      # restated: the deopt is free


class TestWarmStart:
    def test_rocket_reset_is_bit_identical(self):
        """reset() + rerun (warm timing compiler, cold caches) must equal a
        cold construction in every counter."""
        image = _rv64im_edges_program()
        emulator = RocketEmulator(image)
        first = emulator.run()
        emulator.reset()
        second = emulator.run()
        cold = RocketEmulator(image).run()
        for attr in ("cycles", "sw_cycles", "hw_cycles",
                     "instructions_retired", "rocc_commands"):
            assert getattr(second, attr) == getattr(first, attr) == \
                getattr(cold, attr), attr
        for stats_attr in ("icache_stats", "dcache_stats"):
            warm = getattr(second, stats_attr)
            ref = getattr(cold, stats_attr)
            assert (warm.accesses, warm.hits, warm.misses) == \
                (ref.accesses, ref.hits, ref.misses), stats_attr

    def test_acquire_timed_hit_matches_cold_build(self):
        from repro.verification.database import VerificationDatabase

        solution = standard_solutions()[SolutionKind.METHOD1]
        runner = BatchRunner()
        shards = [
            VerificationDatabase(seed).generate_mix(10) for seed in (3, 4)
        ]
        for vectors in shards:
            config = TestProgramConfig(
                solution=SolutionKind.METHOD1, num_samples=len(vectors),
                seed=2018,
            )
            program, emulator = runner.acquire_timed(solution, config, vectors)
            warm = emulator.run()
            cold_program = build_test_program(config, vectors=vectors)
            for name, (base, data) in cold_program.image.segments.items():
                warm_base, warm_data = program.image.segments[name]
                assert warm_base == base
                assert bytes(warm_data) == bytes(data), name
            cold = RocketEmulator(
                cold_program.image,
                accelerator=solution.make_accelerator("decimal64"),
            ).run()
            assert warm.cycles == cold.cycles
            assert warm.instructions_retired == cold.instructions_retired
            assert program.read_results(warm) == \
                cold_program.read_results(cold)
        assert runner.timed_misses == 1 and runner.timed_hits == 1
