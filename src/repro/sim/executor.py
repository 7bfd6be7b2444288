"""Threaded-code execution engine for decoded RV64 instructions.

One :class:`Executor` instance drives one hart against one memory.  The same
executor is reused by every simulator in the repository:

* :class:`repro.sim.spike.SpikeSimulator` — functional, batched execution via
  :meth:`Executor.run`, no timing;
* :class:`repro.rocket.core.RocketEmulator` — wraps each :meth:`Executor.step`
  with the pipeline/cache timing model, and compiles hot spans of it
  (:mod:`repro.rocket.timing`);
* :class:`repro.gem5.atomic_cpu.AtomicSimpleCPU` — a ``SpikeSimulator`` whose
  ticks are its retire count.

Architecture (decode-once threaded code)
----------------------------------------

Instead of re-decoding and re-dispatching on a mnemonic string for every
retired instruction, the engine *compiles* each static instruction the first
time it is executed:

* :meth:`Executor._compile` decodes the word at ``pc`` once and builds a
  **specialized closure** with every operand pre-bound — register indices,
  sign-extended and pre-masked immediates, branch targets, ``pc + 4`` — so
  executing the instruction is a single closure call with no decode, no
  dispatch and no dead work.
* Closures are stored in a **PC-indexed dispatch table** (``_ops``), so the
  hot loop never even re-fetches the instruction word from memory.
* ALU ops, branches and loads take their semantics from the table in
  :mod:`repro.isa.semantics`: their closures come from factories rendered
  from it and exec-compiled once per (shape, mnemonic) per process, so a
  warm process builds a new program's closures without calling
  ``compile()``.
* Every instruction gets *two* closures: a **fast op** used by
  :meth:`run` that returns only the next PC, and an **info op** used by
  :meth:`step` that additionally maintains an :class:`ExecInfo` record for
  the timing models.  ``ExecInfo`` materialization is therefore *opt-in*:
  the functional path never allocates or fills one.
* The per-PC ``ExecInfo`` object is created at compile time and **reused**
  across executions of that instruction; only the dynamic fields (memory
  address, branch outcome, RoCC response) are rewritten per step.  Timing
  models must consume the record before their next ``step()`` call (all
  in-tree models do).
* :meth:`run` threads straight-line runs of fast ops into superblocks
  (``_blocks``), so its dispatch loop pays one table lookup per block.

Correctness safeguards:

* Stores into the compiled-code address range invalidate the affected table
  entries, so self-modifying code behaves exactly as under the old
  fetch-every-step interpreter; ``fence.i`` flushes the whole table.
* Rare instructions that need up-to-date counter state (CSR reads, ``ecall``,
  ``ebreak``) compile to a closure that raises the :data:`_SLOW` sentinel;
  :meth:`run` catches it, synchronizes ``retired``/``hart.pc`` and executes
  the instruction through the exact info-op path.
* The HTIF host interface requests a halt through :meth:`request_halt`
  (wired by the simulators); store closures observe the flag immediately so
  a batched run stops on the exact instruction that wrote ``tohost``.

See ``docs/simulator.md`` for an extension guide (batching, multi-hart) and
the protocol the timing models rely on.
"""

from __future__ import annotations

import functools

from repro.errors import DecodingError, SimulationError, TrapError
from repro.isa import csr as csrdefs
from repro.isa.decoder import decode_cached
from repro.isa.semantics import (  # noqa: F401 - TC_* are re-exported
    ALU,
    BRANCHES,
    HELPERS,
    LOADS,
    MASK64,
    STORES,
    TC_BRANCH,
    TC_DIV,
    TC_JUMP,
    TC_MEM,
    TC_MUL,
    TC_OTHER,
    TC_ROCC,
    signed,
)


class _SlowPath(Exception):
    """Internal: the fast table defers this PC to the info-op path."""


#: Preallocated sentinel raised by slow fast-ops (CSR/ecall/ebreak).
_SLOW = _SlowPath()


def _raise_slow():
    raise _SLOW


class _Stopped(Exception):
    """Internal: a store triggered an HTIF exit mid-batch.

    The retire count is recovered from how far ``pc`` advanced through the
    contiguous block.
    """

    def __init__(self, next_pc: int) -> None:
        self.next_pc = next_pc


class _BlockExit(Exception):
    """Internal: a store invalidated compiled code; abandon the running block."""

    def __init__(self, next_pc: int) -> None:
        self.next_pc = next_pc


#: Superblock op-kind classification (how :meth:`Executor._compile_block`
#: threads closures together).
_KIND_SEQ = 0    # falls through to pc + 4: may appear mid-block
_KIND_TERM = 1   # control transfer (or table flush): always ends a block
_KIND_SLOW = 2   # needs synchronized counters: always a single-op block


class ExecInfo:
    """What a single instruction did (consumed by the timing models).

    Instances are created once per static instruction and *reused*: a timing
    model must read the record before its next ``step()`` call.
    """

    __slots__ = (
        "decoded",
        "pc",
        "next_pc",
        "branch_taken",
        "mem_addr",
        "mem_size",
        "mem_is_store",
        "rocc_busy_cycles",
        "rocc_has_response",
        "timing_class",
    )

    def __init__(self, decoded, pc, next_pc):
        self.decoded = decoded
        self.pc = pc
        self.next_pc = next_pc
        self.branch_taken = False
        self.mem_addr = None
        self.mem_size = 0
        self.mem_is_store = False
        self.rocc_busy_cycles = 0
        self.rocc_has_response = False
        self.timing_class = TC_OTHER


# ---------------------------------------------------- tier-1 closure factories
#: Source of the tier-1 closure factories, one per shape, rendered from the
#: semantics table and exec-compiled once per (shape, mnemonic).  Operands
#: arrive as factory arguments, so each is a closure cell exactly as in a
#: hand-written closure, and the 64-bit mask is a constant.
_T1_SOURCES = {
    "alu": (
        "def factory(regs, rd, rs1, rs2, imm, uimm, pcimm, info, hart, next_pc):\n"
        "    def fast():\n"
        "        regs[rd] = {value}\n"
        "        return next_pc\n"
        "    def info_op():\n"
        "        regs[rd] = {value}\n"
        "        hart.pc = next_pc\n"
        "        return info\n"
        "    return fast, info_op\n"
    ),
    "branch": (
        "def factory(regs, rs1, rs2, taken_pc, info, hart, next_pc):\n"
        "    def fast():\n"
        "        return taken_pc if {value} else next_pc\n"
        "    def info_op():\n"
        "        if {value}:\n"
        "            info.branch_taken = True\n"
        "            info.next_pc = taken_pc\n"
        "            hart.pc = taken_pc\n"
        "        else:\n"
        "            info.branch_taken = False\n"
        "            info.next_pc = next_pc\n"
        "            hart.pc = next_pc\n"
        "        return info\n"
        "    return fast, info_op\n"
    ),
    "load": (
        "def factory(regs, rd, rs1, imm, read, info, hart, next_pc):\n"
        "    def fast():\n"
        "        {fast}\n"
        "        return next_pc\n"
        "    def info_op():\n"
        "        address = (regs[rs1] + imm) & 0xFFFFFFFFFFFFFFFF\n"
        "        {info}\n"
        "        info.mem_addr = address\n"
        "        hart.pc = next_pc\n"
        "        return info\n"
        "    return fast, info_op\n"
    ),
}

_T1_OPERANDS = {
    "a": "regs[rs1]",
    "b": "regs[rs2]",
    "sa": signed("regs[rs1]"),
    "sb": signed("regs[rs2]"),
    "imm": "imm",
    "uimm": "uimm",
    "pcimm": "pcimm",
}


@functools.cache
def _t1_factory(shape: str, mnemonic: str):
    """The tier-1 closure factory for ``mnemonic`` in ``shape``.

    Shapes: ``alu`` (``rd != x0``), ``branch``, ``load`` and ``load_x0``.
    """
    if shape in ("alu", "branch"):
        op = ALU[mnemonic] if shape == "alu" else BRANCHES[mnemonic]
        source = _T1_SOURCES[shape].format(
            value=op.template.format_map(_T1_OPERANDS)
        )
    else:
        load = LOADS[mnemonic]
        fast = f"read((regs[rs1] + imm) & 0xFFFFFFFFFFFFFFFF, {load.size})"
        info = f"read(address, {load.size})"
        if shape == "load":
            fast = f"regs[rd] = {load.extend(fast)}"
            info = f"regs[rd] = {load.extend(info)}"
        # else: x0 loads still perform the access (MMIO side effects).
        source = _T1_SOURCES["load"].format(fast=fast, info=info)
    namespace = dict(HELPERS)
    exec(compile(source, f"<tier1:{shape}:{mnemonic}>", "exec"), namespace)
    return namespace["factory"]


class Executor:
    """Threaded-code fetch/decode/execute engine with PC-indexed dispatch."""

    #: Always zero.  These counted a superblock JIT that the engine no
    #: longer has; the repository benchmark's tracer (perfbench/tracing.py)
    #: still reads all three around every ``SpikeSimulator.run`` to report
    #: its ``sim.tier2_*`` metrics, so they stay as constants.
    tier2_blocks = 0
    tier2_compile_seconds = 0.0
    tier2_deopts = 0

    def __init__(self, hart, memory, csr_provider=None, rocc=None):
        self.hart = hart
        self.memory = memory
        self.csr_provider = csr_provider if csr_provider is not None else (lambda addr: 0)
        self.rocc = rocc
        self.exit_requested = False
        self.exit_code = 0
        #: Set when any exit condition fires (HTIF halt or exit ecall).
        self.stop = False
        #: Total instructions retired by this executor (run() and step()).
        self.retired = 0
        # PC-indexed dispatch tables.
        self._ops = {}
        self._info_ops = {}
        self._decoded_at = {}
        self._kinds = {}
        # PC-indexed (info_op, info) pairs: lets a timing model fetch the
        # static ExecInfo (for pre-issue hazard checks) and execute with a
        # single table lookup.
        self._timed = {}
        # PC-indexed superblocks: straight-line runs of fast ops threaded into
        # a list so the dispatch loop pays one table lookup per block.
        self._blocks = {}
        # PC-indexed *timing* superblocks, owned by the cycle-accurate Rocket
        # front end (see repro.rocket.timing): head pc -> (fn, min_fuel).
        # They live on the executor because the executor owns code-change
        # visibility — fence.i and self-modifying stores must drop compiled
        # timing spans exactly like every other compiled artifact.
        self._tblocks = {}
        # [lo, hi) byte range covered by compiled instructions; shared with
        # store closures so writes into code invalidate stale table entries.
        self._code_bounds = [1 << 62, 0]

    # ------------------------------------------------------------------ control
    def request_halt(self) -> None:
        """Stop a batched :meth:`run` after the current instruction (HTIF)."""
        self.stop = True

    def flush(self) -> None:
        """Drop every compiled instruction (``fence.i``, external cache control)."""
        self._ops.clear()
        self._info_ops.clear()
        self._decoded_at.clear()
        self._kinds.clear()
        self._timed.clear()
        self._blocks.clear()
        self._tblocks.clear()

    def _invalidate(self, address: int, size: int) -> None:
        """A store hit the compiled range: drop any overlapping instructions."""
        ops = self._ops
        info_ops = self._info_ops
        decoded_at = self._decoded_at
        kinds = self._kinds
        timed = self._timed
        for pc in range(address - 3, address + size):
            ops.pop(pc, None)
            info_ops.pop(pc, None)
            decoded_at.pop(pc, None)
            kinds.pop(pc, None)
            timed.pop(pc, None)
        # Superblocks and timing spans embed closure references and decoded
        # semantics spanning many PCs, so any code write drops them all
        # (rare: only stores into the compiled range get here).
        self._blocks.clear()
        self._tblocks.clear()

    # ------------------------------------------------------------------ fetch
    def fetch_decode(self, pc: int):
        """Return the decoded instruction at ``pc`` (PC-indexed, decode-once)."""
        decoded = self._decoded_at.get(pc)
        if decoded is None:
            decoded = decode_cached(self.memory.read(pc, 4))
            self._decoded_at[pc] = decoded
        return decoded

    # -------------------------------------------------------------------- run
    def run(self, max_instructions: int) -> int:
        """Execute up to the ``max_instructions`` budget in a tight loop.

        Stops early when the program exits (HTIF halt or exit ``ecall``);
        may overshoot the budget by up to one superblock (callers use the
        budget as a runaway guard, not an exact stopping point).  Returns the
        number of instructions retired by this call; the running total is
        kept in :attr:`retired`.
        """
        if self.stop:
            return 0
        hart = self.hart
        blocks_get = self._blocks.get
        compile_block = self._compile_block
        pc = hart.pc
        retired = self.retired
        start = retired
        end = retired + max_instructions
        try:
            while retired < end:
                ops = blocks_get(pc)
                if ops is None:
                    ops = compile_block(pc)
                block_pc = pc
                try:
                    for op in ops:
                        pc = op()
                except _SlowPath:
                    # CSR / ecall / ebreak: needs exact architectural state.
                    # Sequential blocks make the partial count recoverable
                    # from how far pc advanced.
                    retired += (pc - block_pc) >> 2
                    self.retired = retired
                    hart.pc = pc
                    self.step()
                    retired = self.retired
                    pc = hart.pc
                    if self.stop:
                        break
                    continue
                except _BlockExit as exited:
                    pc = exited.next_pc
                    retired += (pc - block_pc) >> 2
                    continue
                except _Stopped as stopped:
                    pc = stopped.next_pc
                    retired += (pc - block_pc) >> 2
                    break
                except BaseException:
                    retired += (pc - block_pc) >> 2
                    raise
                retired += len(ops)
        finally:
            self.retired = retired
            hart.pc = pc
        return retired - start

    # ------------------------------------------------------------------- step
    def step(self) -> ExecInfo:
        """Execute one instruction and return what it did (timing-model path)."""
        pc = self.hart.pc
        op = self._info_ops.get(pc)
        if op is None:
            self._compile(pc)
            op = self._info_ops[pc]
        info = op()
        self.retired += 1
        return info

    # ------------------------------------------------------------------- CSRs
    def _read_csr(self, address: int) -> int:
        if address in csrdefs.IMPLEMENTED:
            return self.csr_provider(address)
        raise TrapError(f"access to unimplemented CSR {address:#x}")

    # --------------------------------------------------------------- compiler
    def _compile(self, pc: int):
        """Decode the instruction at ``pc`` into its two specialized closures."""
        decoded = self.fetch_decode(pc)
        info = ExecInfo(decoded, pc, pc + 4)
        fast, info_op, kind = self._build(pc, decoded, info)
        self._ops[pc] = fast
        self._info_ops[pc] = info_op
        self._kinds[pc] = kind
        # An op is "direct" when its fast closure already provides everything
        # a timing model needs (no dynamic ExecInfo fields): plain ALU /
        # mul / div ops, fences and unconditional jumps.  Loads/stores
        # (dynamic mem_addr), conditional branches (dynamic branch_taken),
        # RoCC (dynamic busy cycles) and the slow class must go through the
        # info op.
        timing_class = info.timing_class
        direct = (
            kind == _KIND_SEQ and timing_class in (TC_OTHER, TC_MUL, TC_DIV)
        ) or (kind == _KIND_TERM and timing_class in (TC_JUMP, TC_OTHER))
        self._timed[pc] = (fast if direct else info_op, info, direct)
        bounds = self._code_bounds
        if pc < bounds[0]:
            bounds[0] = pc
        if pc + 4 > bounds[1]:
            bounds[1] = pc + 4
        return fast

    #: Upper bound on superblock length; bounds both compile-ahead work and
    #: how far a batch may overshoot its instruction budget.
    _MAX_BLOCK = 512

    def _compile_block(self, pc: int):
        """Thread the straight-line run starting at ``pc`` into one op list."""
        ops = []
        kinds = self._kinds
        table = self._ops
        p = pc
        while len(ops) < self._MAX_BLOCK:
            op = table.get(p)
            if op is None:
                try:
                    op = self._compile(p)
                except (DecodingError, SimulationError) as error:
                    # Block building decodes ahead of execution; a bad word
                    # must only raise if control actually reaches it.
                    if not ops:
                        def op(error=error):
                            raise error
                        ops.append(op)
                    break
            kind = kinds[p]
            if kind == _KIND_SLOW:
                if not ops:
                    ops.append(op)
                break
            ops.append(op)
            if kind == _KIND_TERM:
                break
            p += 4
        self._blocks[pc] = ops
        return ops

    def _build(self, pc: int, decoded, info):  # noqa: C901 - one arm per instruction
        hart = self.hart
        regs = hart.regs
        memory = self.memory
        mnemonic = decoded.mnemonic
        rd = decoded.rd
        rs1 = decoded.rs1
        rs2 = decoded.rs2
        imm = decoded.imm
        next_pc = pc + 4

        # --- table-driven: ALU ops and loads (repro.isa.semantics) ----------
        alu = ALU.get(mnemonic)
        if alu is not None:
            info.timing_class = alu.timing_class
            if rd == 0:
                # Writes to x0 are discarded; the whole instruction is a no-op.
                def fast():
                    return next_pc

                def info_op():
                    hart.pc = next_pc
                    return info
            else:
                fast, info_op = _t1_factory("alu", mnemonic)(
                    regs, rd, rs1, rs2, imm, imm & MASK64,
                    (pc + imm) & MASK64, info, hart, next_pc,
                )
            return fast, info_op, _KIND_SEQ

        load = LOADS.get(mnemonic)
        if load is not None:
            info.mem_size = load.size
            info.timing_class = TC_MEM
            fast, info_op = _t1_factory("load" if rd else "load_x0", mnemonic)(
                regs, rd, rs1, imm, memory.read, info, hart, next_pc,
            )
            return fast, info_op, _KIND_SEQ

        # --- stores -----------------------------------------------------------
        size = STORES.get(mnemonic)
        if size is not None:
            write = memory.write
            bounds = self._code_bounds
            executor = self
            info.mem_size = size
            info.mem_is_store = True
            info.timing_class = TC_MEM

            def fast():
                address = (regs[rs1] + imm) & MASK64
                write(address, size, regs[rs2])
                # Overlap test against [lo, hi): the store's byte range is
                # [address, address + size), so a store that merely straddles
                # the start of the compiled region must invalidate too.
                if address < bounds[1] and address + size > bounds[0]:
                    executor._invalidate(address, size)
                    raise _BlockExit(next_pc)
                if executor.stop:
                    raise _Stopped(next_pc)
                return next_pc

            def info_op():
                address = (regs[rs1] + imm) & MASK64
                write(address, size, regs[rs2])
                if address < bounds[1] and address + size > bounds[0]:
                    executor._invalidate(address, size)
                info.mem_addr = address
                hart.pc = next_pc
                return info
            return fast, info_op, _KIND_SEQ

        # --- control transfer -------------------------------------------------
        if mnemonic == "jal":
            target = (pc + imm) & MASK64
            info.next_pc = target
            info.branch_taken = True
            info.timing_class = TC_JUMP
            if rd:
                def fast():
                    regs[rd] = next_pc
                    return target
            else:
                def fast():
                    return target

            def info_op():
                if rd:
                    regs[rd] = next_pc
                hart.pc = target
                return info
            return fast, info_op, _KIND_TERM

        if mnemonic == "jalr":
            target_mask = MASK64 & ~1
            info.branch_taken = True
            info.timing_class = TC_JUMP
            if rd:
                def fast():
                    target = (regs[rs1] + imm) & target_mask
                    regs[rd] = next_pc
                    return target
            else:
                def fast():
                    return (regs[rs1] + imm) & target_mask

            def info_op():
                target = (regs[rs1] + imm) & target_mask
                if rd:
                    regs[rd] = next_pc
                info.next_pc = target
                hart.pc = target
                return info
            return fast, info_op, _KIND_TERM

        branch = BRANCHES.get(mnemonic)
        if branch is not None:
            taken_pc = (pc + imm) & MASK64
            info.timing_class = branch.timing_class
            fast, info_op = _t1_factory("branch", mnemonic)(
                regs, rs1, rs2, taken_pc, info, hart, next_pc
            )
            return fast, info_op, _KIND_TERM

        # --- system -----------------------------------------------------------
        if mnemonic in ("csrrs", "csrrw", "csrrc", "csrrsi", "csrrwi", "csrrci"):
            executor = self
            csr_address = decoded.csr

            def info_op():
                value = executor._read_csr(csr_address)
                if rd:
                    regs[rd] = value & MASK64
                hart.pc = next_pc
                return info
            return _raise_slow, info_op, _KIND_SLOW

        if mnemonic == "ecall":
            executor = self

            def info_op():
                # Bare-metal convention: a7 holds the syscall number; 93 is
                # exit with the code in a0.  Anything else is "unhandled".
                if regs[17] == 93:
                    executor.exit_requested = True
                    executor.exit_code = regs[10] & 0xFF
                    executor.stop = True
                else:
                    raise TrapError(f"unhandled ecall (a7={regs[17]}) at pc={pc:#x}")
                hart.pc = next_pc
                return info
            return _raise_slow, info_op, _KIND_SLOW

        if mnemonic == "ebreak":
            def info_op():
                raise TrapError(f"ebreak at pc={pc:#x}")
            return _raise_slow, info_op, _KIND_SLOW

        if mnemonic == "fence":
            def fast():
                return next_pc

            def info_op():
                hart.pc = next_pc
                return info
            return fast, info_op, _KIND_SEQ

        if mnemonic == "fence.i":
            executor = self

            def fast():
                executor.flush()
                return next_pc

            def info_op():
                executor.flush()
                hart.pc = next_pc
                return info
            return fast, info_op, _KIND_TERM

        # --- RoCC custom instructions ------------------------------------------
        if mnemonic == "rocc":
            rocc = self.rocc
            if rocc is None:
                def fast():
                    raise SimulationError(
                        f"RoCC instruction at pc={pc:#x} but no accelerator attached"
                    )
                return fast, fast, _KIND_SEQ
            execute = rocc.execute
            funct7 = decoded.funct7
            xd = bool(decoded.xd)
            xs1 = bool(decoded.xs1)
            xs2 = bool(decoded.xs2)
            info.timing_class = TC_ROCC

            def fast():
                has_response, value, _ = execute(
                    funct7, rd, rs1, rs2, regs[rs1], regs[rs2],
                    xd, xs1, xs2, memory,
                )
                if has_response and rd:
                    regs[rd] = value & MASK64
                return next_pc

            def info_op():
                has_response, value, busy_cycles = execute(
                    funct7, rd, rs1, rs2, regs[rs1], regs[rs2],
                    xd, xs1, xs2, memory,
                )
                info.rocc_busy_cycles = busy_cycles
                info.rocc_has_response = has_response
                if has_response and rd:
                    regs[rd] = value & MASK64
                hart.pc = next_pc
                return info
            return fast, info_op, _KIND_SEQ

        raise SimulationError(  # pragma: no cover - decoder and builder in sync
            f"unimplemented instruction {mnemonic!r} at {pc:#x}"
        )
