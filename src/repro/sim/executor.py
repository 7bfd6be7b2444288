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

* :meth:`Executor._compile` decodes the word at ``pc`` once and records its
  *static facts*: the decoded word, an :class:`ExecInfo` holding the
  compile-time fields (timing class, memory size, jump target), its
  superblock kind and whether it is *direct* (its fast op gives a timing
  model everything it needs).
* From those facts each model builds only the **specialized closure** it
  dispatches through, with every operand pre-bound — register indices,
  sign-extended and pre-masked immediates, branch targets, ``pc + 4`` — so
  executing the instruction is a single closure call with no decode, no
  dispatch and no dead work:

  - :meth:`run` builds a **fast op** that returns only the next PC;
  - :meth:`step` builds an **info op** that also sets ``hart.pc`` and fills
    the pc's ``ExecInfo`` for the timing models;
  - the Rocket loop builds a ``_timed`` entry: the fast op of a direct
    instruction, the info op otherwise.

  The functional path therefore builds no info op (bar its slow ops, below)
  and never fills an ``ExecInfo``'s dynamic fields.
* Closures are stored in **PC-indexed dispatch tables** (``_ops``,
  ``_info_ops``, ``_timed``), so the hot loop never even re-fetches the
  instruction word from memory.
* ALU ops, branches and loads take their semantics from the table in
  :mod:`repro.isa.semantics`: their closures come from factories rendered
  from it and exec-compiled once per (shape, mnemonic, closure) per
  process, so a warm process builds a new program's closures without
  calling ``compile()``.
* The per-PC ``ExecInfo`` object is created once and **reused** across
  executions of that instruction, whichever closure reads it; only the
  dynamic fields (memory address, branch outcome, RoCC response) are
  rewritten per step.  Timing models must consume the record before their
  next ``step()`` call (all in-tree models do).
* :meth:`run` threads straight-line runs of fast ops into superblocks
  (``_blocks``), so its dispatch loop pays one table lookup per block.

Correctness safeguards:

* Stores into the compiled-code address range invalidate the affected table
  entries, so self-modifying code behaves exactly as under the old
  fetch-every-step interpreter; ``fence.i`` flushes the whole table.
* Rare instructions that need up-to-date counter state (CSR reads, ``ecall``,
  ``ebreak``) compile to a fast op that raises :class:`_SlowPath`;
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


def _raise_slow():
    # A fresh instance each time: a reused one would keep every traceback
    # it was raised through, and with their frames every executor run.
    raise _SlowPath()


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
#: Source of the tier-1 closure factories, one per (shape, closure), rendered
#: from the semantics table and exec-compiled once per (shape, mnemonic,
#: closure).  Operands arrive as factory arguments, so each one the closure
#: reads is a closure cell exactly as in a hand-written closure (the others
#: stay plain locals), and the 64-bit mask is a constant.  ``fast`` closures
#: return the next pc; ``info`` closures set ``hart.pc`` and return the
#: pc's :class:`ExecInfo`.
_T1_SOURCES = {
    ("alu", "fast"): (
        "def factory(regs, rd, rs1, rs2, imm, uimm, pcimm, info, hart, next_pc):\n"
        "    def fast():\n"
        "        regs[rd] = {value}\n"
        "        return next_pc\n"
        "    return fast\n"
    ),
    ("alu", "info"): (
        "def factory(regs, rd, rs1, rs2, imm, uimm, pcimm, info, hart, next_pc):\n"
        "    def info_op():\n"
        "        regs[rd] = {value}\n"
        "        hart.pc = next_pc\n"
        "        return info\n"
        "    return info_op\n"
    ),
    ("branch", "fast"): (
        "def factory(regs, rs1, rs2, taken_pc, info, hart, next_pc):\n"
        "    def fast():\n"
        "        return taken_pc if {value} else next_pc\n"
        "    return fast\n"
    ),
    ("branch", "info"): (
        "def factory(regs, rs1, rs2, taken_pc, info, hart, next_pc):\n"
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
        "    return info_op\n"
    ),
    ("load", "fast"): (
        "def factory(regs, rd, rs1, imm, read, info, hart, next_pc):\n"
        "    def fast():\n"
        "        {access}\n"
        "        return next_pc\n"
        "    return fast\n"
    ),
    ("load", "info"): (
        "def factory(regs, rd, rs1, imm, read, info, hart, next_pc):\n"
        "    def info_op():\n"
        "        address = (regs[rs1] + imm) & 0xFFFFFFFFFFFFFFFF\n"
        "        {access}\n"
        "        info.mem_addr = address\n"
        "        hart.pc = next_pc\n"
        "        return info\n"
        "    return info_op\n"
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
def _t1_factory(shape: str, mnemonic: str, closure: str):
    """The factory of ``mnemonic``'s ``closure`` (``fast`` or ``info``).

    Shapes: ``alu`` (``rd != x0``), ``branch``, ``load`` and ``load_x0``.
    """
    if shape in ("alu", "branch"):
        op = ALU[mnemonic] if shape == "alu" else BRANCHES[mnemonic]
        source = _T1_SOURCES[shape, closure].format(
            value=op.template.format_map(_T1_OPERANDS)
        )
    else:
        load = LOADS[mnemonic]
        address = (
            "address" if closure == "info"
            else "(regs[rs1] + imm) & 0xFFFFFFFFFFFFFFFF"
        )
        access = f"read({address}, {load.size})"
        if shape == "load":
            access = f"regs[rd] = {load.extend(access)}"
        # else: x0 loads still perform the access (MMIO side effects).
        source = _T1_SOURCES["load", closure].format(access=access)
    namespace = dict(HELPERS)
    exec(compile(source, f"<tier1:{shape}:{mnemonic}:{closure}>", "exec"),
         namespace)
    return namespace["factory"]


_CSR_MNEMONICS = ("csrrs", "csrrw", "csrrc", "csrrsi", "csrrwi", "csrrci")

#: Block kinds of the instructions outside the semantics table that are
#: neither jumps nor RoCC commands (see :func:`_classify`).
_SYSTEM_KINDS = {
    "fence": _KIND_SEQ,
    "fence.i": _KIND_TERM,
    "ecall": _KIND_SLOW,
    "ebreak": _KIND_SLOW,
    **dict.fromkeys(_CSR_MNEMONICS, _KIND_SLOW),
}


def _classify(decoded, info) -> int:
    """Fill ``info``'s static fields for ``decoded``; return its block kind."""
    mnemonic = decoded.mnemonic
    alu = ALU.get(mnemonic)
    if alu is not None:
        info.timing_class = alu.timing_class
        return _KIND_SEQ
    load = LOADS.get(mnemonic)
    if load is not None:
        info.mem_size = load.size
        info.timing_class = TC_MEM
        return _KIND_SEQ
    size = STORES.get(mnemonic)
    if size is not None:
        info.mem_size = size
        info.mem_is_store = True
        info.timing_class = TC_MEM
        return _KIND_SEQ
    branch = BRANCHES.get(mnemonic)
    if branch is not None:
        info.timing_class = branch.timing_class
        return _KIND_TERM
    if mnemonic in ("jal", "jalr"):
        info.branch_taken = True
        info.timing_class = TC_JUMP
        if mnemonic == "jal":
            info.next_pc = (info.pc + decoded.imm) & MASK64
        return _KIND_TERM
    if mnemonic == "rocc":
        info.timing_class = TC_ROCC
        return _KIND_SEQ
    kind = _SYSTEM_KINDS.get(mnemonic)
    if kind is None:  # pragma: no cover - decoder and classifier in sync
        raise SimulationError(
            f"unimplemented instruction {mnemonic!r} at {info.pc:#x}"
        )
    return kind


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
        # PC-indexed static facts, recorded once per instruction by
        # _compile: (decoded, info, kind, direct).  Every closure of a pc is
        # built from its entry, so all of them share its one ExecInfo.
        self._static = {}
        self._decoded_at = {}
        # PC-indexed closures, each table filled only by the model that
        # dispatches through it: fast ops (run's superblocks), info ops
        # (step) and the Rocket loop's (op, info, direct) entries, which
        # give a timing model the static ExecInfo (for pre-issue hazard
        # checks) and the op in one lookup.
        self._ops = {}
        self._info_ops = {}
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
        self._static.clear()
        self._decoded_at.clear()
        self._ops.clear()
        self._info_ops.clear()
        self._timed.clear()
        self._blocks.clear()
        self._tblocks.clear()

    def _invalidate(self, address: int, size: int) -> None:
        """A store hit the compiled range: drop any overlapping instructions."""
        tables = (
            self._static, self._decoded_at, self._ops, self._info_ops,
            self._timed,
        )
        for pc in range(address - 3, address + size):
            for table in tables:
                table.pop(pc, None)
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
            decoded, info, _, _ = self._static.get(pc) or self._compile(pc)
            op = self._info_ops[pc] = self._build(pc, decoded, info, True)
        info = op()
        self.retired += 1
        return info

    # ------------------------------------------------------------------- CSRs
    def _read_csr(self, address: int) -> int:
        if address in csrdefs.IMPLEMENTED:
            return self.csr_provider(address)
        raise TrapError(f"access to unimplemented CSR {address:#x}")

    # --------------------------------------------------------------- compiler
    def _compile(self, pc: int) -> tuple:
        """Record the static facts of the instruction at ``pc``.

        Returns ``(decoded, info, kind, direct)``, the entry every closure
        of ``pc`` is built from; it builds no closure itself.
        """
        decoded = self.fetch_decode(pc)
        info = ExecInfo(decoded, pc, pc + 4)
        kind = _classify(decoded, info)
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
        entry = self._static[pc] = (decoded, info, kind, direct)
        bounds = self._code_bounds
        if pc < bounds[0]:
            bounds[0] = pc
        if pc + 4 > bounds[1]:
            bounds[1] = pc + 4
        return entry

    def _timed_entry(self, pc: int) -> tuple:
        """The Rocket loop's ``(op, info, direct)`` entry for ``pc``.

        ``op`` is the fast op when the instruction is direct, the info op
        otherwise; only that one closure is built.
        """
        decoded, info, _, direct = self._static.get(pc) or self._compile(pc)
        entry = self._timed[pc] = (
            self._build(pc, decoded, info, not direct), info, direct
        )
        return entry

    #: Upper bound on superblock length; bounds both compile-ahead work and
    #: how far a batch may overshoot its instruction budget.
    _MAX_BLOCK = 512

    def _compile_block(self, pc: int):
        """Thread the straight-line run starting at ``pc`` into one op list."""
        ops = []
        static = self._static
        table = self._ops
        p = pc
        while len(ops) < self._MAX_BLOCK:
            entry = static.get(p)
            if entry is None:
                try:
                    entry = self._compile(p)
                except (DecodingError, SimulationError) as error:
                    # Block building decodes ahead of execution; a bad word
                    # must only raise if control actually reaches it.
                    if not ops:
                        def op(error=error):
                            raise error
                        ops.append(op)
                    break
            decoded, info, kind, _ = entry
            if kind == _KIND_SLOW and ops:
                break  # a slow op is a block of its own
            op = table.get(p)
            if op is None:
                op = table[p] = self._build(p, decoded, info, False)
            ops.append(op)
            if kind != _KIND_SEQ:
                break
            p += 4
        self._blocks[pc] = ops
        return ops

    def _build(self, pc: int, decoded, info, want_info: bool):
        """The info op (``want_info``) or the fast op of the instruction at ``pc``.

        A fast op executes the instruction and returns the next pc; an info
        op also sets ``hart.pc``, fills ``info``'s dynamic fields and returns
        ``info``, whose static fields :func:`_classify` already filled.
        ALU ops, loads and branches come from the semantics-table factories
        (this method defines no closure, so it creates no cells);
        :meth:`_build_other` writes out everything else.
        """
        mnemonic = decoded.mnemonic
        closure = "info" if want_info else "fast"
        hart = self.hart
        rd = decoded.rd
        imm = decoded.imm
        if mnemonic in ALU:
            if rd:
                return _t1_factory("alu", mnemonic, closure)(
                    hart.regs, rd, decoded.rs1, decoded.rs2, imm, imm & MASK64,
                    (pc + imm) & MASK64, info, hart, pc + 4,
                )
        elif mnemonic in LOADS:
            return _t1_factory("load" if rd else "load_x0", mnemonic, closure)(
                hart.regs, rd, decoded.rs1, imm, self.memory.read, info, hart,
                pc + 4,
            )
        elif mnemonic in BRANCHES:
            return _t1_factory("branch", mnemonic, closure)(
                hart.regs, decoded.rs1, decoded.rs2, (pc + imm) & MASK64, info,
                hart, pc + 4,
            )
        return self._build_other(pc, decoded, info, want_info)

    def _build_other(self, pc: int, decoded, info, want_info):  # noqa: C901
        """:meth:`_build` for every instruction the factories do not cover."""
        hart = self.hart
        regs = hart.regs
        mnemonic = decoded.mnemonic
        rd = decoded.rd
        rs1 = decoded.rs1
        rs2 = decoded.rs2
        imm = decoded.imm
        next_pc = pc + 4

        # --- no-ops: fence, and ALU ops writing x0 (the write is discarded)
        if mnemonic == "fence" or mnemonic in ALU:
            if want_info:
                def op():
                    hart.pc = next_pc
                    return info
            else:
                def op():
                    return next_pc
            return op

        # --- stores -----------------------------------------------------------
        size = STORES.get(mnemonic)
        if size is not None:
            write = self.memory.write
            bounds = self._code_bounds
            executor = self
            if want_info:
                def op():
                    address = (regs[rs1] + imm) & MASK64
                    write(address, size, regs[rs2])
                    if address < bounds[1] and address + size > bounds[0]:
                        executor._invalidate(address, size)
                    info.mem_addr = address
                    hart.pc = next_pc
                    return info
            else:
                def op():
                    address = (regs[rs1] + imm) & MASK64
                    write(address, size, regs[rs2])
                    # Overlap test against [lo, hi): the store's byte range
                    # is [address, address + size), so a store that merely
                    # straddles the start of the compiled region must
                    # invalidate too.
                    if address < bounds[1] and address + size > bounds[0]:
                        executor._invalidate(address, size)
                        raise _BlockExit(next_pc)
                    if executor.stop:
                        raise _Stopped(next_pc)
                    return next_pc
            return op

        # --- control transfer -------------------------------------------------
        if mnemonic == "jal":
            target = (pc + imm) & MASK64
            if want_info:
                def op():
                    if rd:
                        regs[rd] = next_pc
                    hart.pc = target
                    return info
            elif rd:
                def op():
                    regs[rd] = next_pc
                    return target
            else:
                def op():
                    return target
            return op

        if mnemonic == "jalr":
            target_mask = MASK64 & ~1
            if want_info:
                def op():
                    target = (regs[rs1] + imm) & target_mask
                    if rd:
                        regs[rd] = next_pc
                    info.next_pc = target
                    hart.pc = target
                    return info
            elif rd:
                def op():
                    target = (regs[rs1] + imm) & target_mask
                    regs[rd] = next_pc
                    return target
            else:
                def op():
                    return (regs[rs1] + imm) & target_mask
            return op

        # --- system: slow ops run only through their info op -----------------
        if _SYSTEM_KINDS.get(mnemonic) == _KIND_SLOW and not want_info:
            return _raise_slow

        if mnemonic in _CSR_MNEMONICS:
            executor = self
            csr_address = decoded.csr

            def op():
                value = executor._read_csr(csr_address)
                if rd:
                    regs[rd] = value & MASK64
                hart.pc = next_pc
                return info
            return op

        if mnemonic == "ecall":
            executor = self

            def op():
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
            return op

        if mnemonic == "ebreak":
            def op():
                raise TrapError(f"ebreak at pc={pc:#x}")
            return op

        if mnemonic == "fence.i":
            executor = self
            if want_info:
                def op():
                    executor.flush()
                    hart.pc = next_pc
                    return info
            else:
                def op():
                    executor.flush()
                    return next_pc
            return op

        # --- RoCC custom instructions (_classify rejected anything else) -------
        rocc = self.rocc
        if rocc is None:
            def op():
                raise SimulationError(
                    f"RoCC instruction at pc={pc:#x} but no accelerator attached"
                )
            return op
        execute = rocc.execute
        memory = self.memory
        funct7 = decoded.funct7
        xd = bool(decoded.xd)
        xs1 = bool(decoded.xs1)
        xs2 = bool(decoded.xs2)
        if want_info:
            def op():
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
        else:
            def op():
                has_response, value, _ = execute(
                    funct7, rd, rs1, rs2, regs[rs1], regs[rs2],
                    xd, xs1, xs2, memory,
                )
                if has_response and rd:
                    regs[rd] = value & MASK64
                return next_pc
        return op
