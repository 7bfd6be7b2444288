"""What the cold path builds, and what it leaves behind.

A cold model pays once for every compiled artifact it uses, so these tests
pin that each artifact is built once and only by the model that runs it:

* a timing span ends where its fall-through reaches the head of a span
  that is already compiled, and exits into it instead of compiling the
  same code a second time (cycles stay equal to the interpreted loop);
* each model builds only the tier-1 closure it dispatches through: Spike's
  ``run()`` the fast ops, ``step()`` the info ops, Rocket's loop its
  ``_timed`` entries, all over one per-pc record of static facts (decoded
  word, ``ExecInfo``, kind, directness) that code changes drop with the
  rest;
* a finished machine is freed: nothing the engine keeps between runs holds
  a reference to the executors of a shard that is over.
"""

from __future__ import annotations

import gc
import weakref

from repro.asm.builder import AsmBuilder
from repro.core.campaign import CampaignCell
from repro.core.evaluation import run_solution_shard
from repro.core.solution import standard_solutions
from repro.isa.encoder import encode_instruction
from repro.isa.semantics import ALU
from repro.rocket.core import RocketEmulator
from repro.sim.batch import BatchRunner
from repro.sim.executor import TC_BRANCH, TC_MEM, Executor
from repro.sim.hart import Hart
from repro.sim.memory import SparseMemory
from repro.sim.spike import SpikeSimulator
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.testgen.generator import build_test_program
from repro.verification.database import OperandClass, VerificationDatabase
from tests.test_timing_tier import _assert_identical, _exit_sequence

BASE = 0x1000


def _executor(words, regs=None):
    """Encoded ``words`` at ``BASE`` under a fresh executor."""
    memory = SparseMemory()
    for index, word in enumerate(words):
        memory.write(BASE + 4 * index, 4, word)
    hart = Hart(pc=BASE)
    for reg, value in (regs or {}).items():
        hart.regs[reg] = value
    return Executor(hart, memory), hart


def _method1_kernel():
    program = build_test_program(TestProgramConfig(
        solution=SolutionKind.METHOD1, num_samples=4, seed=2018,
    ))
    solution = standard_solutions()[SolutionKind.METHOD1]
    return program.image, lambda: solution.make_accelerator("decimal64")


# ------------------------------------------------------- no span compiled twice
def _nested_loops(outer=64, inner=4):
    """An outer loop whose head falls through into an inner loop's head.

    The inner head is reached ``inner - 1`` times per outer pass, the outer
    head once, so the inner loop's span compiles first, and the walk from
    the outer head reaches it after two instructions.
    """
    builder = AsmBuilder()
    builder.text()
    builder.label("_start")
    builder.li("s1", 0)
    builder.li("s2", outer)
    builder.li("s3", 0)
    builder.label("outer")
    builder.emit("addi", "t0", "t0", 1)
    builder.emit("addi", "t1", "t1", 3)
    builder.label("inner")
    builder.emit("addi", "t2", "t2", 5)
    builder.emit("addi", "s3", "s3", 1)
    builder.emit("andi", "t3", "s3", inner - 1)
    builder.bnez("t3", "inner")
    builder.emit("addi", "s1", "s1", 1)
    builder.branch("blt", "s1", "s2", "outer")
    _exit_sequence(builder)
    return builder.link()


def test_walk_ends_at_a_compiled_span_head():
    image = _nested_loops()
    fast, _ = _assert_identical(image)
    outer, inner = image.symbol("outer"), image.symbol("inner")
    spans = fast.executor._tblocks
    assert inner in spans and outer in spans
    # (fn, min_fuel): a straight-line span needs fuel for each of its
    # instructions, so the outer head's span holds its own two and exits
    # into the inner loop's span instead of inlining it again.
    assert spans[outer][1] == 2
    assert f"return ({inner}, cycle, 2," in fast._timing_sources[outer]


# ------------------------------------------- one tier-1 closure per model
def test_spike_builds_fast_ops_only():
    image, make_accel = _method1_kernel()
    simulator = SpikeSimulator(image, accelerator=make_accel())
    assert simulator.run().exit_code == 0
    executor = simulator.executor
    assert executor._ops and not executor._timed
    # Only the slow ops (counter CSR reads, ecall) ran through step().
    stepped = {executor._static[pc][0].mnemonic for pc in executor._info_ops}
    assert stepped and not stepped & set(ALU)
    assert all(mnemonic.startswith(("csrr", "ecall")) for mnemonic in stepped)


def test_rocket_builds_timed_entries_only():
    image, make_accel = _method1_kernel()
    emulator = RocketEmulator(image, accelerator=make_accel())
    assert emulator.run().exit_code == 0
    executor = emulator.executor
    assert executor._timed
    assert executor._ops == {} and executor._info_ops == {}
    for pc, (_, info, direct) in executor._timed.items():
        _, static_info, _, static_direct = executor._static[pc]
        assert info is static_info and direct == static_direct


def test_step_after_run_shares_the_pcs_exec_info():
    executor, hart = _executor(
        [
            encode_instruction("ld", 7, 5, 8),     # BASE
            encode_instruction("beq", 5, 6, 8),    # BASE+4 -> BASE+12
        ],
        regs={5: 0x9000, 6: 0x9000},
    )
    executor.memory.write(0x9008, 8, 42)
    executor.run(2)                       # builds the fast ops only
    assert set(executor._ops) == {BASE, BASE + 4}
    assert executor._info_ops == {}
    hart.pc = BASE

    info = executor.step()
    assert info is executor._static[BASE][1]
    assert (info.mem_addr, info.mem_size, info.timing_class) == (
        0x9008, 8, TC_MEM
    )
    assert not info.mem_is_store and hart.regs[7] == 42
    info = executor.step()
    assert info is executor._static[BASE + 4][1]
    assert info.timing_class == TC_BRANCH
    assert info.branch_taken and info.next_pc == hart.pc == BASE + 12


def test_fence_i_drops_the_static_facts():
    executor, _ = _executor([
        encode_instruction("addi", 7, 0, 1),
        encode_instruction("fence.i"),
    ])
    executor.step()
    assert BASE in executor._static
    executor.step()
    assert executor._static == {} and executor._info_ops == {}


def test_self_modifying_store_drops_the_static_facts():
    patch = encode_instruction("addi", 7, 0, 3)
    executor, hart = _executor(
        [
            encode_instruction("addi", 7, 0, 2),   # BASE: patched below
            encode_instruction("sw", 6, 5, 0),     # BASE+4: store to BASE
            encode_instruction("jal", 0, -8),      # BASE+8: back to BASE
        ],
        regs={5: BASE, 6: patch},
    )
    executor.step()
    executor.step()
    assert BASE not in executor._static and BASE not in executor._info_ops
    assert BASE + 4 in executor._static
    executor.step()
    executor.step()                       # BASE again: the patched word
    assert hart.regs[7] == 3
    assert executor._static[BASE][0].imm == 3


# ------------------------------------------------------------ pinned machines
def test_finished_differential_shard_frees_its_machines(monkeypatch):
    """Spike's slow ops (counter CSR reads) leave ``run()`` through an
    exception; no exception object may outlive its handler holding the
    frames it passed through, and with them the shard's executors."""
    created = []
    real_init = Executor.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        created.append(weakref.ref(self))

    monkeypatch.setattr(Executor, "__init__", recording_init)
    vectors = VerificationDatabase(13).generate_mix(4, OperandClass.ALL)
    cell = CampaignCell(
        solution=standard_solutions()[SolutionKind.METHOD1],
        num_samples=len(vectors), differential=True,
    )
    outcome = run_solution_shard(cell, vectors, runner=BatchRunner())
    assert not outcome.failed
    assert outcome.functional_result.instructions_retired > 0
    assert len(created) == 3  # Spike, Rocket and gem5

    del outcome
    gc.collect()
    assert [ref() for ref in created if ref() is not None] == []
