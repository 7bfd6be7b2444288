"""Batch-vector execution tests: warm reuse must equal the cold path.

Locks down the contract of :class:`~repro.sim.batch.BatchRunner` and the
engine behaviours it relies on (see docs/simulator.md):

* ``run`` (fast closures, batched into superblocks) and ``step`` (info
  closures) agree exactly, on plain RV64IM loops and on programs that
  interleave RoCC commands;
* a store into a loop's cached superblocks drops them, so the rewritten
  loop runs its new code;
* a warm ``BatchRunner`` entry, a rebuilt evicted one and the campaign
  engine's warm workers reproduce the cold path sample for sample.
"""

from __future__ import annotations

import pytest

from repro.errors import TrapError
from repro.isa.encoder import encode_instruction
from repro.sim.batch import BatchRunner
from repro.sim.executor import Executor
from repro.sim.hart import Hart
from repro.sim.memory import SparseMemory
from repro.sim.spike import SpikeSimulator

BASE = 0x1000
DATA = 0x8000


def make_executor(words, regs=None):
    """Encoded words at ``BASE``; returns (executor, hart, memory)."""
    memory = SparseMemory()
    for index, word in enumerate(words):
        memory.write(BASE + 4 * index, 4, word)
    hart = Hart(pc=BASE)
    for reg, value in (regs or {}).items():
        hart.regs[reg] = value
    return Executor(hart, memory), hart, memory


def run_to_trap(executor, budget=1_000_000):
    """Run until the final ``ebreak`` traps; returns instructions retired."""
    with pytest.raises(TrapError):
        executor.run(budget)
    return executor.retired


class TestSelfModifyingCode:
    def test_store_into_hot_loop_takes_effect(self):
        # A loop runs long enough to be threaded into cached superblocks;
        # then a store rewrites its body and the loop runs again: the
        # cached blocks must be dropped and the new semantics take effect.
        words = [
            encode_instruction("addi", 28, 28, 1),     # patched below
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -8),
            encode_instruction("ebreak"),
        ]
        executor, hart, memory = make_executor(
            words, regs={5: 300, 20: encode_instruction("addi", 28, 28, 7),
                         21: BASE}
        )
        run_to_trap(executor)
        assert hart.regs[28] == 300
        assert BASE in executor._blocks
        patch = [
            encode_instruction("sw", 20, 21, 0),       # code store
            encode_instruction("jalr", 0, 22, 0),      # jump back to loop
        ]
        for index, word in enumerate(patch):
            memory.write(BASE + 0x100 + 4 * index, 4, word)
        hart.pc = BASE + 0x100
        hart.regs[5] = 10
        hart.regs[22] = BASE
        hart.regs[28] = 0
        run_to_trap(executor)
        assert hart.regs[28] == 70  # 10 iterations of the *new* body


class TestRunStepEquivalence:
    def test_run_matches_step(self):
        words = [
            encode_instruction("add", 6, 20, 21),
            encode_instruction("sll", 7, 6, 22),
            encode_instruction("sd", 7, 23, 0),
            encode_instruction("ld", 8, 23, 0),
            encode_instruction("add", 28, 28, 8),
            encode_instruction("addi", 5, 5, -1),
            encode_instruction("bne", 5, 0, -24),
            encode_instruction("ebreak"),
        ]
        regs = {5: 200, 20: 5, 21: 9, 22: 3, 23: DATA}

        run_ex, run_hart, _ = make_executor(words, regs=regs)
        run_to_trap(run_ex)

        step_ex, step_hart, _ = make_executor(words, regs=regs)
        with pytest.raises(TrapError):
            while True:
                step_ex.step()
        assert list(run_hart.regs) == list(step_hart.regs)
        assert run_ex.retired == step_ex.retired


def _build(kind, num_samples, seed, vectors=None):
    from repro.testgen.config import TestProgramConfig
    from repro.testgen.generator import build_test_program

    config = TestProgramConfig(solution=kind, num_samples=num_samples, seed=seed)
    return config, build_test_program(config, vectors=vectors)


class TestBatchRunner:
    def test_batch_200_sample_bit_identity(self):
        # The acceptance case: 200 software-kernel samples through a warm
        # runner (second acquire = warm hit) must match a cold build+run
        # sample for sample, including retire counts and cycle samples.
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        runner = BatchRunner()
        for seed in (2018, 31337):
            vectors = draw_vectors(200, seed)
            config, cold_program = _build(
                SolutionKind.SOFTWARE, 200, seed, vectors=vectors
            )
            cold_sim = SpikeSimulator(cold_program.image)
            cold = cold_sim.run()
            program, warm = runner.run_functional(solution, config, vectors)
            assert cold_program.read_results(cold) == program.read_results(warm)
            assert (cold_program.read_cycle_samples(cold)
                    == program.read_cycle_samples(warm))
            assert cold.instructions_retired == warm.instructions_retired
            assert cold.exit_code == warm.exit_code
        assert runner.hits == 1 and runner.misses == 1

    def test_warm_acquire_image_matches_fresh_build(self):
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        solution = standard_solutions()[SolutionKind.METHOD1]
        runner = BatchRunner()
        for seed in (1, 2):
            vectors = draw_vectors(25, seed)
            config, fresh = _build(SolutionKind.METHOD1, 25, seed, vectors=vectors)
            program, _ = runner.acquire(solution, config, vectors)
            assert fresh.image.symbols == program.image.symbols
            for name, (base, data) in fresh.image.segments.items():
                warm_base, warm_data = program.image.segments[name]
                assert warm_base == base
                assert bytes(warm_data) == bytes(data), f"{name} segment differs"
            assert fresh.operand_words == program.operand_words

    def test_rebind_rejects_wrong_shape(self):
        from repro.errors import ConfigurationError
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        _, program = _build(SolutionKind.SOFTWARE, 10, 2018)
        with pytest.raises(ConfigurationError):
            program.rebind(draw_vectors(11, 2018))

    def test_scratch_span_covers_result_buffers(self):
        from repro.testgen.config import SolutionKind

        _, program = _build(SolutionKind.SOFTWARE, 10, 2018)
        start, size = program.scratch_span()
        symbols = program.image.symbols
        assert start == symbols["results"]
        assert start + size == symbols["total_cycles"] + 8
        assert symbols["cycle_samples"] in range(start, start + size)
        assert symbols["num_samples"] >= start + size

    def test_spike_reset_rerun_is_identical(self):
        from repro.testgen.config import SolutionKind

        _, program = _build(SolutionKind.SOFTWARE, 30, 2018)
        simulator = SpikeSimulator(program.image)
        first = simulator.run()
        first_words = program.read_results(first)
        first_retired = first.instructions_retired
        for _ in range(2):
            simulator.reset()
            again = simulator.run()
            assert program.read_results(again) == first_words
            assert again.instructions_retired == first_retired
            assert again.exit_code == first.exit_code

    def test_eviction_caps_live_simulators(self):
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        runner = BatchRunner(max_entries=2)
        for samples in (3, 4, 5, 6):
            vectors = draw_vectors(samples, 2018)
            config, _ = _build(SolutionKind.SOFTWARE, samples, 2018,
                               vectors=vectors)
            runner.run_functional(solution, config, vectors)
        assert len(runner._entries) == 2
        assert runner.misses == 4

    def test_max_entries_below_one_rejected(self):
        from repro.errors import ConfigurationError

        for bad in (0, -1):
            with pytest.raises(ConfigurationError):
                BatchRunner(max_entries=bad)
        assert BatchRunner(max_entries=1).max_entries == 1

    def test_clear_resets_stats(self):
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        runner = BatchRunner()
        vectors = draw_vectors(5, 2018)
        config, _ = _build(SolutionKind.SOFTWARE, 5, 2018, vectors=vectors)
        runner.run_functional(solution, config, vectors)
        runner.run_functional(solution, config, vectors)
        assert runner.hits == 1 and runner.misses == 1
        runner.clear()
        assert runner.hits == 0 and runner.misses == 0
        assert not runner._entries
        runner.run_functional(solution, config, vectors)
        runner.reset_stats()
        assert runner.hits == 0 and runner.misses == 0
        assert runner._entries  # reset_stats keeps the warm simulators

    def test_key_omits_vector_provenance_safely(self):
        # ``BatchRunner._key`` deliberately omits ``workload``,
        # ``operand_classes`` and ``seed``: those fields only select the
        # operand *vectors*, which every warm hit rebinds anyway.  Pin the
        # safety argument: two configs differing only in vector provenance
        # share a key, and the warm-hit image after rebinding is
        # byte-identical to a cold build over the same vectors.
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind, TestProgramConfig
        from repro.testgen.generator import build_test_program, generate_vectors

        solution = standard_solutions()[SolutionKind.SOFTWARE]
        mix_config = TestProgramConfig(
            solution=SolutionKind.SOFTWARE, num_samples=12, seed=2018
        )
        workload_config = TestProgramConfig(
            solution=SolutionKind.SOFTWARE, num_samples=12, seed=99,
            workload="telco-billing",
        )
        assert (BatchRunner._key(solution, mix_config)
                == BatchRunner._key(solution, workload_config))

        runner = BatchRunner()
        mix_vectors = generate_vectors(mix_config)
        runner.run_functional(solution, mix_config, mix_vectors)
        workload_vectors = generate_vectors(workload_config)
        program, _ = runner.run_functional(
            solution, workload_config, workload_vectors
        )
        assert runner.hits == 1 and runner.misses == 1
        cold = build_test_program(workload_config, vectors=workload_vectors)
        for name, (base, data) in cold.image.segments.items():
            warm_base, warm_data = program.image.segments[name]
            assert warm_base == base
            assert bytes(warm_data) == bytes(data), f"{name} segment differs"

        # Fields that change the generated text DO key: a different sample
        # count or solution kind must miss.
        other = TestProgramConfig(
            solution=SolutionKind.SOFTWARE, num_samples=13, seed=2018
        )
        assert (BatchRunner._key(solution, mix_config)
                != BatchRunner._key(solution, other))

    def test_shape_links_once_and_encodes_once(self, monkeypatch):
        # acquire and acquire_timed share one bind step: a shape is built
        # and linked once for both models, and a new same-shape vector set
        # is encoded once however many models it is acquired for.
        import repro.testgen.generator as generator
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind
        from repro.testgen.generator import draw_vectors

        calls = {"build": 0, "encode": 0}
        build = generator.build_test_program
        encode = generator.GeneratedProgram.encode_operands

        def counted_build(*args, **kwargs):
            calls["build"] += 1
            return build(*args, **kwargs)

        def counted_encode(self, vectors):
            calls["encode"] += 1
            return encode(self, vectors)

        monkeypatch.setattr(generator, "build_test_program", counted_build)
        monkeypatch.setattr(generator.GeneratedProgram, "encode_operands",
                            counted_encode)
        solution = standard_solutions()[SolutionKind.METHOD1]
        runner = BatchRunner()
        for seed, builds, encodes in ((1, 1, 0), (2, 0, 1)):
            vectors = draw_vectors(9, seed)
            config, _ = _build(SolutionKind.METHOD1, 9, seed, vectors=vectors)
            calls.update(build=0, encode=0)
            functional, _ = runner.acquire(solution, config, vectors)
            timed, _ = runner.acquire_timed(solution, config, list(vectors))
            assert (calls["build"], calls["encode"]) == (builds, encodes)
            fresh = build(config, vectors=vectors)
            for program in (functional, timed):
                for name, (base, data) in fresh.image.segments.items():
                    assert program.image.segments[name][0] == base
                    assert bytes(program.image.segments[name][1]) == \
                        bytes(data), f"{name} segment differs"
        assert (runner.misses, runner.hits) == (1, 1)
        assert (runner.timed_misses, runner.timed_hits) == (1, 1)

    def test_unchecked_shard_builds_no_functional_simulator(self):
        # A non-differential dummy cell is never run on the functional
        # model, so its shard must not construct one.
        from repro.core.campaign import table_iv_cells
        from repro.core.evaluation import run_solution_shard

        cell, = table_iv_cells(num_samples=6, kinds=("method1_dummy",))
        runner = BatchRunner()
        outcome = run_solution_shard(cell, cell.generate_vectors(),
                                     runner=runner)
        assert outcome.functional_result is None
        assert runner.hits == runner.misses == 0
        assert runner.timed_misses == 1

    def test_rebuild_after_eviction_is_identical(self):
        """A shape evicted and rebuilt runs bit-identically to its first
        build."""
        from repro.core.solution import standard_solutions
        from repro.testgen.config import SolutionKind, TestProgramConfig
        from repro.verification.database import VerificationDatabase

        vectors = VerificationDatabase(11).generate_mix(8)
        solution = standard_solutions()[SolutionKind.SOFTWARE]
        other = standard_solutions()[SolutionKind.METHOD1]
        runner = BatchRunner(max_entries=1)
        config = TestProgramConfig(
            solution=SolutionKind.SOFTWARE, num_samples=len(vectors),
            seed=2018,
        )
        other_config = TestProgramConfig(
            solution=SolutionKind.METHOD1, num_samples=len(vectors),
            seed=2018,
        )
        program, first = runner.run_functional(solution, config, vectors)
        reference = program.read_results(first)
        runner.run_functional(other, other_config, vectors)   # evicts
        program, again = runner.run_functional(solution, config, vectors)
        assert runner.misses == 3
        assert program.read_results(again) == reference
        assert again.instructions_retired == first.instructions_retired


class TestCampaignWarmWorkers:
    def test_workers_with_warm_runners_match_cold_serial(self):
        # The campaign engine hands every worker a per-process BatchRunner;
        # the merged report must still equal the cold serial path exactly.
        from repro.core.campaign import run_campaign, table_iv_cells
        from repro.core.evaluation import run_solution_shard
        from repro.core.results import merge_shard_reports

        cells = table_iv_cells(num_samples=12)
        cold = []
        for cell in cells:
            outcome = run_solution_shard(
                cell, cell.generate_vectors(), runner=BatchRunner()
            )
            cold.append(merge_shard_reports(
                solution_name=cell.solution.name,
                solution_kind=cell.solution.kind,
                shards=[outcome.shard_report],
                repetitions=cell.repetitions,
            ))
        result = run_campaign(table_iv_cells(num_samples=12), workers=2)
        for cold_report, warm_report in zip(cold, result.reports):
            assert cold_report.per_sample_cycles == warm_report.per_sample_cycles
            assert (cold_report.instructions_retired
                    == warm_report.instructions_retired)
            assert cold_report.avg_total_cycles == warm_report.avg_total_cycles
            assert cold_report.rocc_commands == warm_report.rocc_commands

    def test_sharded_cell_reuses_runner_within_worker(self):
        # Serial in-process campaign: every shard goes through the same
        # module-level runner, so same-shape shards hit the warm cache.
        import repro.core.campaign as campaign_mod
        from repro.core.campaign import run_campaign, table_iv_cells

        campaign_mod._SHARD_RUNNER = None
        try:
            run_campaign(table_iv_cells(num_samples=8,
                                        kinds=("software",)),
                         workers=1, shards_per_cell=2)
            runner = campaign_mod._SHARD_RUNNER
            assert runner is not None
            assert runner.hits + runner.misses == 2
            assert runner.hits >= 1, "same-shape shards did not reuse the cache"
        finally:
            campaign_mod._SHARD_RUNNER = None


# --------------------------------------------------------------------------
# RoCC lockstep: batched ``run`` (fast closures) and per-instruction ``step``
# (info closures) must stay bit-identical when the instruction stream
# interleaves accelerator commands with different funct codes, and so must a
# warm rerun after ``reset``; these tests pin response values, the status
# carry/borrow chain and the accelerator's architectural state.

BCD_A = 0x0123456789012345
BCD_B = 0x0864197532086419


def _rocc_state(simulator, accelerator):
    """Observable state after a run: results, retire count, accelerator."""
    out = simulator.image.symbol("out")
    return (
        [simulator.memory.read(out + 8 * i, 8) for i in range(8)],
        simulator.executor.retired,
        accelerator.accumulator,
        accelerator.status,
        [accelerator.regfile.read(i)
         for i in range(accelerator.config.num_registers)],
    )


def _assert_rocc_lockstep(image):
    """Batched, warm-rerun and stepped runs of a RoCC program agree exactly."""
    from repro.rocc.decimal_accel import DecimalAccelerator

    accelerator = DecimalAccelerator()
    simulator = SpikeSimulator(image, accelerator=accelerator)
    simulator.run()
    batched = _rocc_state(simulator, accelerator)
    simulator.reset()
    simulator.run()
    warm = _rocc_state(simulator, accelerator)

    accelerator = DecimalAccelerator()
    stepped = SpikeSimulator(image, accelerator=accelerator)
    while not stepped.htif.exited:
        stepped.executor.step()
    assert batched == warm == _rocc_state(stepped, accelerator)
    return batched


class TestRoccLockstep:
    def _finish(self, b):
        from repro.asm.program import TOHOST_ADDRESS

        b.li("t5", TOHOST_ADDRESS)
        b.li("t6", 1)
        b.emit("sd", "t6", "t5", 0)
        b.label("spin")
        b.j("spin")
        return b.link()

    def test_interleaved_funct_codes(self):
        # One hot loop cycling through seven funct codes — value-mode
        # chunked add/sub (status-chained carry), register-file writes, a
        # register-mode wide add, the fused accumulate (DEC_FMA_ACC, which
        # no kernel emits), the shift-accumulate and status readback.
        from repro.asm.builder import AsmBuilder
        from repro.rocc.decimal_accel import (
            ACC_HI_SELECTOR,
            ACC_LO_SELECTOR,
            STATUS_SELECTOR,
        )

        b = AsmBuilder()
        b.data()
        b.label("out")
        b.dword(*([0] * 8))
        b.text()
        b.label("_start")
        b.la("a5", "out")
        b.li("s0", BCD_A)
        b.li("s1", BCD_B)
        b.li("s2", 3)  # DEC_FMA_ACC shift in digits, passed by value
        b.li("s3", 0)  # checksum over every response word
        b.li("t0", 60)
        b.label("loop")
        b.rocc("DEC_ADDC", rd="a0", rs1="s0", rs2="s1",
               xd=True, xs1=True, xs2=True)
        b.emit("add", "s3", "s3", "a0")
        b.rocc("DEC_SUBB", rd="a1", rs1="s1", rs2="s0",
               xd=True, xs1=True, xs2=True)
        b.emit("xor", "s3", "s3", "a1")
        b.rocc("WR", rd=0, rs1="s0", rs2=1, xs1=True)
        b.rocc("WR", rd=0, rs1="a0", rs2=2, xs1=True)
        b.rocc("DEC_ADD", rd=3, rs1=1, rs2=2)
        b.rocc("DEC_FMA_ACC", rd="a2", rs1=3, rs2="s2", xd=True, xs2=True)
        b.emit("add", "s3", "s3", "a2")
        b.rocc("DEC_ACCUM", rd=0, rs1=1, rs2=0)
        b.rocc("RD", rd="a3", rs2=STATUS_SELECTOR, xd=True)
        b.emit("add", "s3", "s3", "a3")
        b.emit("addi", "t0", "t0", -1)
        b.bnez("t0", "loop")
        b.emit("sd", "s3", "a5", 0)
        b.rocc("RD", rd="a0", rs2=ACC_LO_SELECTOR, xd=True)
        b.emit("sd", "a0", "a5", 8)
        b.rocc("RD", rd="a1", rs2=ACC_HI_SELECTOR, xd=True)
        b.emit("sd", "a1", "a5", 16)
        b.rocc("RD", rd="a2", rs2=STATUS_SELECTOR, xd=True)
        b.emit("sd", "a2", "a5", 24)
        b.rocc("RD", rd="a3", rs2=3, xd=True)
        b.emit("sd", "a3", "a5", 32)
        image = self._finish(b)
        _assert_rocc_lockstep(image)

    def test_chunked_carry_chain_matches_bigint(self):
        # The kernels' wadd/wsub shape: stream a 4-word BCD number through
        # DEC_ADDC word by word with the carry living in status bit 0, in a
        # hot loop.  Besides lockstep, check the chained result against a
        # big-integer decimal model of the same words.
        from repro.asm.builder import AsmBuilder

        x_words = [0x9999999999999999, 0x0000000000000001,
                   BCD_A, 0x0000000000000042]
        y_words = [0x0000000000000001, 0x9999999999999998,
                   BCD_B, 0x0000000000000007]

        b = AsmBuilder()
        b.data()
        b.label("out")
        b.dword(*([0] * 8))
        b.label("x")
        b.dword(*x_words)
        b.label("y")
        b.dword(*y_words)
        b.text()
        b.label("_start")
        b.la("a5", "out")
        b.la("a3", "x")
        b.la("a4", "y")
        b.li("t0", 40)
        b.label("loop")
        b.rocc("CLR_ALL")  # carry chain starts clean every pass
        for w in range(4):
            b.emit("ld", "t1", "a3", 8 * w)
            b.emit("ld", "t2", "a4", 8 * w)
            b.rocc("DEC_ADDC", rd="t3", rs1="t1", rs2="t2",
                   xd=True, xs1=True, xs2=True)
            b.emit("sd", "t3", "a5", 8 * w)
        b.emit("addi", "t0", "t0", -1)
        b.bnez("t0", "loop")
        image = self._finish(b)
        state = _assert_rocc_lockstep(image)

        def to_int(words):
            return int("".join(f"{w:016x}" for w in reversed(words)))

        total = to_int(x_words) + to_int(y_words)
        expected = [int(f"{(total // 10 ** (16 * w)) % 10 ** 16:016d}", 16)
                    for w in range(4)]
        assert state[0][:4] == expected
