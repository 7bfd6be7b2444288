"""Threaded-code execution engine for decoded RV64 instructions.

One :class:`Executor` instance drives one hart against one memory.  The same
executor is reused by every simulator in the repository:

* :class:`repro.sim.spike.SpikeSimulator` — functional, batched execution via
  :meth:`Executor.run`, no timing;
* :class:`repro.rocket.core.RocketEmulator` — wraps each :meth:`Executor.step`
  with the pipeline/cache timing model;
* :class:`repro.gem5.atomic_cpu.AtomicSimpleCPU` — a ``SpikeSimulator`` built
  with ``tier2=False``: batched tier-1 execution, one tick per instruction.

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
  from it and exec-compiled once per (shape, mnemonic).
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

Tier-2: compiled superblocks
----------------------------

The closure tables above are *tier 1*.  Superblocks that :meth:`run` executes
more than :attr:`Executor.promote_threshold` times are **promoted**:
:meth:`Executor._promote` walks the trace starting at the block head —
through conditional branches (fall-through) and ``jal`` targets, stopping at
``jalr``, CSR/``ecall``/``ebreak``/``fence.i``/RoCC boundaries, undecodable
words, revisited PCs and a length cap — and generates straight-line Python
source with the touched registers held in **locals**, every immediate and
branch target folded to a constant, and no per-instruction dispatch at all.
Back-edges to the block head become a native ``while`` loop, so a hot inner
loop runs entirely inside one compiled function with the register file
loaded once.  The source is ``exec``-compiled into a single function per
superblock: ``fn(fuel) -> (next_pc, instructions_retired)``.

Tier-2 correctness mirrors tier 1 exactly:

* every exit past the entry guard — a return, a ``raise`` or a fuel
  check — leaves through one ``try``/``finally`` epilogue that writes the
  trace's written registers back to the register file, and returns (or
  raises with) the precise retire count;
* stores perform the same compiled-range overlap test and raise
  :class:`_BlockExit` / :class:`_Stopped` — with an explicit retire count,
  since a trace may be non-contiguous;
* loop back-edges check a ``fuel`` budget so a batched :meth:`run` cannot
  overshoot ``max_instructions`` by more than one superblock;
* any store into compiled code (and ``fence.i``) drops every tier-2
  function along with the tier-1 tables, *de-promoting* the block: it is
  recompiled from the freshly fetched words and must re-earn promotion.
* blocks whose head is a slow/RoCC/undecodable instruction are marked
  ineligible and stay on the tier-1 closures forever.

Per-superblock retire/compile counters are available opt-in through
:meth:`Executor.enable_profiling` (see :class:`ExecProfile`); the
always-cheap aggregate compile counters (``tier2_blocks``,
``tier2_compile_seconds``, ``tier2_source_chars``) are maintained
unconditionally.

See ``docs/simulator.md`` for an extension guide (tier hierarchy, batching,
multi-hart) and the protocol the timing models rely on.
"""

from __future__ import annotations

import functools
from time import perf_counter

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
from repro.sim.memory import HOST_IS_LITTLE_ENDIAN, SparseMemory


class _SlowPath(Exception):
    """Internal: the fast table defers this PC to the info-op path."""


#: Preallocated sentinel raised by slow fast-ops (CSR/ecall/ebreak).
_SLOW = _SlowPath()


def _raise_slow():
    raise _SLOW


class _Stopped(Exception):
    """Internal: a store triggered an HTIF exit mid-batch.

    ``count`` is ``None`` when raised from a tier-1 block (the retire count
    is recovered from how far ``pc`` advanced through the contiguous block)
    and an explicit instruction count when raised from a tier-2 superblock,
    whose trace may be non-contiguous.
    """

    def __init__(self, next_pc: int, count: int = None) -> None:
        self.next_pc = next_pc
        self.count = count


class _BlockExit(Exception):
    """Internal: a store invalidated compiled code; abandon the running block.

    ``count`` follows the same tier-1/tier-2 convention as :class:`_Stopped`.
    """

    def __init__(self, next_pc: int, count: int = None) -> None:
        self.next_pc = next_pc
        self.count = count


class _Deopt(Exception):
    """Internal: a tier-2 entry guard failed — the value-range speculation
    baked into the compiled superblock does not hold for this call.

    Raised before any architectural state changes, so the dispatcher simply
    drops the function and falls back to the tier-1 closures; re-promotion
    re-speculates against the registers as they stand then.
    """


#: Preallocated: the guard raises before any state change, so no payload.
_DEOPT = _Deopt()


class _Rewalk(Exception):
    """Internal: restart a tier-2 trace walk with extra fold bans.

    Raised when a back-edge could close a native loop except that folded
    constants defined by the peeled first iteration would go stale across
    the edge.  ``pcs`` are the offending fold use-sites; re-walking with
    them banned emits dynamic code there so the loop can wrap.
    """

    def __init__(self, pcs) -> None:
        self.pcs = pcs


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


class ExecProfile:
    """Opt-in per-superblock execution/compile counters.

    Enabled through :meth:`Executor.enable_profiling`; the default execution
    path never touches an instance (one ``is None`` test per block).  All
    dictionaries are keyed by superblock head PC.
    """

    __slots__ = (
        "tier1_execs",
        "tier1_instrs",
        "tier2_execs",
        "tier2_instrs",
        "compiled",
        "side_exits",
    )

    def __init__(self) -> None:
        #: Completed tier-1 block executions / instructions retired, per head.
        self.tier1_execs = {}
        self.tier1_instrs = {}
        #: Tier-2 superblock calls / instructions retired, per head.
        self.tier2_execs = {}
        self.tier2_instrs = {}
        #: head -> (static trace length, compile seconds) for promoted blocks.
        self.compiled = {}
        #: (trace head, exit pc) -> count of tier-2 exits that fell back to
        #: tier 1 there (no compiled continuation was installed yet).  This
        #: is the trace-tree worklist: the hottest entries are exactly the
        #: side exits most worth extending with a compiled continuation.
        self.side_exits = {}

    def _t1(self, pc: int, count: int) -> None:
        self.tier1_execs[pc] = self.tier1_execs.get(pc, 0) + 1
        self.tier1_instrs[pc] = self.tier1_instrs.get(pc, 0) + count

    def _t2(self, pc: int, count: int) -> None:
        self.tier2_execs[pc] = self.tier2_execs.get(pc, 0) + 1
        self.tier2_instrs[pc] = self.tier2_instrs.get(pc, 0) + count

    def _exit(self, head: int, exit_pc: int) -> None:
        key = (head, exit_pc)
        self.side_exits[key] = self.side_exits.get(key, 0) + 1

    @property
    def tier1_instructions(self) -> int:
        return sum(self.tier1_instrs.values())

    @property
    def tier2_instructions(self) -> int:
        return sum(self.tier2_instrs.values())

    @property
    def compile_seconds(self) -> float:
        return sum(seconds for _, seconds in self.compiled.values())

    def snapshot(self) -> dict:
        """Aggregate view used by the throughput benchmark and docs examples."""
        return {
            "tier1_instructions": self.tier1_instructions,
            "tier2_instructions": self.tier2_instructions,
            "tier2_blocks": len(self.compiled),
            "tier2_compile_seconds": self.compile_seconds,
            "hottest_tier2": sorted(
                self.tier2_instrs.items(), key=lambda item: -item[1]
            )[:8],
            "hot_side_exits": [
                {"head": head, "exit": exit_pc, "count": count}
                for (head, exit_pc), count in sorted(
                    self.side_exits.items(), key=lambda item: -item[1]
                )[:8]
            ],
        }

    def summary(self, limit: int = 10) -> str:
        """Human-readable per-tier totals plus the hot side-exit ranking.

        The side-exit table ranks ``(trace head, exit pc)`` pairs by how
        often a tier-2 trace left compiled code there without a compiled
        continuation — i.e. the fall-back-to-tier-1 transitions that the
        trace-tree extender targets.  In steady state the table should be
        (close to) empty: every hot exit earns its own continuation after a
        couple of arrivals.
        """
        lines = [
            "execution profile:",
            f"  tier-2: {self.tier2_instructions:>12,} instructions across "
            f"{len(self.compiled)} compiled traces "
            f"({self.compile_seconds:.4f}s compiling)",
            f"  tier-1: {self.tier1_instructions:>12,} instructions across "
            f"{len(self.tier1_instrs)} interpreted blocks",
        ]
        exits = sorted(self.side_exits.items(), key=lambda item: -item[1])
        if exits:
            lines.append(f"  hot side exits (top {min(limit, len(exits))} "
                         f"of {len(exits)}; trace-tree continuation targets):")
            lines.append("    head        exit        arrivals")
            for (head, exit_pc), count in exits[:limit]:
                lines.append(f"    {head:#010x}  {exit_pc:#010x}  {count:>8,}")
        else:
            lines.append("  hot side exits: none (every exit has a compiled "
                         "continuation)")
        return "\n".join(lines)


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


#: Tier-2 source text for each template placeholder, as f-string fields over
#: the emitter's ``reg``/``sreg`` resolvers.
_T2_OPERANDS = {
    "a": "{reg(rs1)}",
    "b": "{reg(rs2)}",
    "sa": "{sreg(rs1, spc)}",
    "sb": "{sreg(rs2, spc)}",
    "imm": "{imm}",
    "uimm": "{imm & 0xFFFFFFFFFFFFFFFF}",
    "pcimm": "{(pc + imm) & 0xFFFFFFFFFFFFFFFF}",
}


@functools.cache
def _t2_renderer(op):
    """A function rendering ``op``'s template as tier-2 source text.

    The template becomes an f-string, so each placeholder is resolved where
    it occurs, in template order, and nowhere else: ``reg``/``sreg`` record
    register uses as a side effect, so resolving one the template lacks
    would change the generated code.  ``spc`` is the instruction's pc where
    a signed view may use a proven non-negative bound (comparisons and
    branches), ``None`` to keep the full sign conversion.
    """
    text = op.template.format_map(_T2_OPERANDS)
    return eval(f"lambda reg, sreg, rs1, rs2, imm, pc, spc: f{text!r}")


#: Instructions that end a tier-2 trace *before* being included: they need
#: synchronized architectural state (CSR reads, traps), flush the compiled
#: tables (``fence.i``) or have accelerator side effects (RoCC) that the
#: folded straight-line code cannot express.  Execution falls back to the
#: tier-1 closures at the returned PC.
_T2_STOPPERS = frozenset({
    "csrrs", "csrrw", "csrrc", "csrrsi", "csrrwi", "csrrci",
    "ecall", "ebreak", "fence.i",
})

#: Instructions that may be folded under a skip-diamond guard (no control
#: transfer, no table flush, no synchronized-state requirement).
#: Longest forward skip (instructions) folded into an if/else diamond.
_T2_MAX_SKIP = 8


class Executor:
    """Threaded-code fetch/decode/execute engine with PC-indexed dispatch."""

    #: Default tier-2 promotion threshold, in *instructions retired* at a
    #: superblock head (not executions): a head is promoted once its tier-1
    #: volume crosses this.  Volume-based heat auto-scales — a 2-instruction
    #: loop-control block needs thousands of trips before compiling pays,
    #: while a 100-instruction kernel body promotes after a few dozen.  A
    #: promotion costs about 6 ms (seed-7 ``op_sweep_diff``, traced on a
    #: shared 2-core VM: 174 compiles in 1.07 s), several times what tier 1
    #: takes to retire the threshold's 4096 instructions, so a head whose
    #: volume stops near the threshold does not repay its compile.
    #: Trace-tree continuations (:meth:`_reheat`) promote on their second
    #: arrival, whatever their volume.
    PROMOTE_THRESHOLD = 4096

    def __init__(self, hart, memory, csr_provider=None, rocc=None, *,
                 tier2: bool = True, promote_threshold: int = None,
                 counter_csrs=None):
        self.hart = hart
        self.memory = memory
        # Tier-2's page-view memory lanes index the page bytearrays
        # directly, which is only sound when the memory object's
        # read/write are the stock SparseMemory methods: a subclass that
        # overrides them (fault injectors, tracing wrappers) must see
        # every access, so the lanes are disabled and compiled code goes
        # through the bound rd_/wr_ methods instead.
        mem_cls = type(memory)
        self._direct_memory = (
            getattr(mem_cls, "read", None) is SparseMemory.read
            and getattr(mem_cls, "write", None) is SparseMemory.write
        )
        self.csr_provider = csr_provider if csr_provider is not None else (lambda addr: 0)
        self.rocc = rocc
        #: CSR addresses whose read is *exactly* the current retired-
        #: instruction count (a contract the owner of ``csr_provider`` opts
        #: into).  Tier-2 inlines pure reads of these (``csrrs rd, csr, x0``
        #: — the ``rdcycle``/``rdinstret`` idiom) as arithmetic on the retire
        #: counter instead of breaking the trace, which lets timing-bracket
        #: loops fuse.  ``None`` keeps every CSR a trace stopper.
        self.counter_csrs = frozenset(counter_csrs) if counter_csrs else None
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
        # Tier-2: head pc -> compiled superblock function fn(fuel) -> (pc, n),
        # plus per-head execution heat driving promotion.  A head that cannot
        # be promoted (slow/RoCC/undecodable first instruction) gets a large
        # negative heat so it is never retried.
        self._tier2 = {}
        self._heat = {}
        #: Promote after this many instructions retired at a head via tier 1;
        #: ``0`` disables tier 2 entirely (pure tier-1 engine).
        self.promote_threshold = (
            (self.PROMOTE_THRESHOLD if promote_threshold is None else promote_threshold)
            if tier2 else 0
        )
        #: Always-on aggregate tier-2 counters (cheap: updated at compile time
        #: only).  Per-block detail is opt-in via :meth:`enable_profiling`.
        #: ``tier2_source_chars`` sums the length of every compiled source,
        #: a host-independent measure of what the compiles cost.
        self.tier2_blocks = 0
        self.tier2_compile_seconds = 0.0
        self.tier2_source_chars = 0
        self.tier2_ineligible = 0
        self.tier2_deopts = 0
        # head -> entry-guard failures; past _T2_MAX_DEOPTS the head is
        # recompiled without any entry-value speculation.
        self._t2_deopts = {}
        # head -> (exact {reg: value}, range frozenset) speculated by the
        # installed compile; the deopt handler compares it against the live
        # registers to prune exactly the registers that went stale.
        self._t2_spec = {}
        # head -> registers banned from exact-value / range / pinned-base
        # speculation (learned from deopts, so re-promotion converges).
        self._t2_nospec = {}
        self._t2_norange = {}
        self._t2_nobase = {}
        #: Opt-in :class:`ExecProfile`; ``None`` keeps the hot loop lean.
        self.profile = None

    def enable_profiling(self) -> ExecProfile:
        """Attach (or return the existing) :class:`ExecProfile` to this executor."""
        if self.profile is None:
            self.profile = ExecProfile()
        return self.profile

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
        # De-promote: compiled superblocks embed stale decoded semantics, and
        # heat must restart so the block re-earns promotion from fresh code.
        self._tier2.clear()
        self._heat.clear()

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
        # Superblocks embed closure references (tier 1) and folded decoded
        # semantics spanning many PCs (tier 2), so any code write drops them
        # all (rare: only stores into the compiled range get here).  Clearing
        # ``_heat`` de-promotes: the rewritten block must re-earn promotion.
        self._blocks.clear()
        self._tblocks.clear()
        self._tier2.clear()
        self._heat.clear()

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
        tier2_get = self._tier2.get
        heat = self._heat
        threshold = self.promote_threshold
        profile = self.profile
        pc = hart.pc
        retired = self.retired
        start = retired
        end = retired + max_instructions
        try:
            while retired < end:
                # Tier 2: one call executes the whole (possibly looping)
                # superblock with registers in locals; ``fuel`` bounds budget
                # overshoot at loop back-edges.
                fn = tier2_get(pc)
                if fn is not None:
                    block_pc = pc
                    # Keep the public counter exact at call entry: compiled
                    # bodies reconstruct mid-trace retire counts (inlined
                    # rdcycle/rdinstret) as ``E.retired + n + position``.
                    self.retired = retired
                    try:
                        pc, count = fn(end - retired)
                    except _BlockExit as exited:
                        pc = exited.next_pc
                        retired += exited.count
                        continue
                    except _Stopped as stopped:
                        pc = stopped.next_pc
                        retired += stopped.count
                        break
                    except _Deopt:
                        # Entry guard failed before any state change: drop
                        # the speculative compile, ban exactly the registers
                        # whose speculation went stale, and let tier-1 heat
                        # drive a re-promotion against the current values.
                        del self._tier2[block_pc]
                        spec = self._t2_spec.pop(block_pc, None)
                        pruned = False
                        if spec is not None:
                            exact, ranged, based = spec
                            live = self.hart.regs
                            for r, v in exact.items():
                                if live[r] != v:
                                    self._t2_nospec.setdefault(
                                        block_pc, set()
                                    ).add(r)
                                    pruned = True
                            for r in ranged:
                                if live[r] > self._T2_SPEC_BOUND:
                                    self._t2_norange.setdefault(
                                        block_pc, set()
                                    ).add(r)
                                    pruned = True
                            hooks = list(self.memory._read_hooks) + list(
                                self.memory._write_hooks
                            )
                            for r, (align, span) in based.items():
                                v = live[r]
                                if v & (align - 1) or any(
                                    h - span < v <= h for h in hooks
                                ):
                                    self._t2_nobase.setdefault(
                                        block_pc, set()
                                    ).add(r)
                                    pruned = True
                        self._t2_deopts[block_pc] = (
                            self._t2_deopts.get(block_pc, 0) + 1
                        )
                        if not pruned:
                            # An environment assumption (hook set) failed,
                            # not a register guess: register pruning can't
                            # converge, so disable speculation outright.
                            self._t2_deopts[block_pc] = self._T2_MAX_DEOPTS
                        self.tier2_deopts += 1
                        continue
                    retired += count
                    if profile is not None:
                        profile._t2(block_pc, count)
                    # Trace trees: a tier-2 exit that lands on an uncompiled
                    # head is a side exit falling back to tier 1.  Reheat the
                    # target so a recurring exit promotes into its own
                    # compiled continuation after a second arrival — the
                    # dispatcher then chains trace to trace and the tier-1
                    # residue shrinks toward the genuinely-uncompilable rest.
                    if threshold and tier2_get(pc) is None:
                        self._reheat(block_pc, pc, profile)
                    continue
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
                    # Slow-instruction resume points (rdcycle brackets and
                    # the like) are the other recurring fall-back-to-tier-1
                    # edge; reheat them like tier-2 side exits so the block
                    # after a counter read compiles too.
                    if threshold and tier2_get(pc) is None:
                        self._reheat(None, pc, None)
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
                count = len(ops)
                retired += count
                if threshold:
                    hot = heat.get(block_pc, 0) + count
                    if hot >= threshold:
                        self._promote(block_pc)
                    else:
                        heat[block_pc] = hot
                if profile is not None:
                    profile._t1(block_pc, count)
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

    # ------------------------------------------------- tier-2 superblock JIT
    #: Upper bound on a tier-2 trace length (instructions).  Traces may be
    #: longer than :attr:`_MAX_BLOCK`: the walker plants a mid-trace fuel
    #: check every :attr:`_T2_CHECK` static positions, so the documented
    #: budget-overshoot bound (< ``_MAX_BLOCK``) still holds for both tiers.
    _MAX_T2 = 4096

    #: Static-position interval between mid-trace fuel checks.  Must stay
    #: below ``_MAX_BLOCK - _T2_MAX_SKIP - 1``: a check is only planted at
    #: the top of a walk step, and one step can consume up to
    #: ``1 + _T2_MAX_SKIP`` positions (a guarded skip diamond).
    _T2_CHECK = 500

    #: Largest loop body (in instructions) that const-guided unrolling will
    #: re-trace per iteration instead of wrapping in a ``while 1:``.
    _T2_UNROLL_BODY = 96

    #: Value-range speculation: a register whose live value at promotion
    #: time is at most this is presumed to stay so on every later entry
    #: (addresses, counters, loop limits), letting range analysis elide
    #: 64-bit masks on arithmetic derived from it.  A one-time entry guard
    #: enforces the presumption; see :class:`_Deopt`.
    _T2_SPEC_BOUND = (1 << 44) - 1

    #: Entry-guard failures per head before speculation is given up.  Each
    #: failure prunes the specific stale registers from future compiles
    #: (see ``_t2_nospec``), so this is a backstop, not the usual path.
    _T2_MAX_DEOPTS = 8

    #: Sentinel heat marking a head that can never be promoted.
    _T2_INELIGIBLE = -(1 << 60)

    def _reheat(self, head, exit_pc: int, profile) -> None:
        """Trace-tree continuation heat for a fall-back-to-tier-1 edge.

        Called when compiled code hands control to an uncompiled head:
        either a tier-2 trace side exit (``head`` is the trace head, recorded
        in the profile's hot-exit table) or a slow-instruction resume
        (``head is None``).  Each arrival adds half the promotion threshold,
        so a recurring edge promotes into a compiled continuation on its
        second arrival while genuinely-one-shot exits never pay a compile.
        Promotion right at the edge speculates on the live registers — which
        are exactly the continuation's entry values, the best speculation
        source there is.
        """
        heat = self._heat
        hot = heat.get(exit_pc, 0)
        if hot < 0:  # permanently ineligible head
            return
        if profile is not None and head is not None:
            profile._exit(head, exit_pc)
        hot += max(1, (self.promote_threshold + 1) >> 1)
        if hot >= self.promote_threshold:
            heat.pop(exit_pc, None)
            try:
                self._promote(exit_pc)
            except (DecodingError, SimulationError):
                # The continuation target is not (yet) valid code; execution
                # will raise properly if control really stays there.
                heat[exit_pc] = self._T2_INELIGIBLE
                self.tier2_ineligible += 1
        else:
            heat[exit_pc] = hot

    def preheat(self, heads) -> int:
        """Seed promotion from a prior run: arm ``heads`` for instant tier 2.

        ``heads`` may be an :class:`ExecProfile` (every head it saw promoted
        or executing in tier 2) or an iterable of head pcs.  Each armed head
        gets its heat set to the promotion threshold, so its *first* tier-1
        execution promotes it — skipping the organic warm-up volume — while
        speculation still happens against live register state at that first
        execution, exactly like an organic promotion.  Heads already
        promoted or marked ineligible are skipped.  Returns the number of
        heads armed.

        This is the batch-rerun warm-start knob: a
        :class:`~repro.sim.batch.BatchRunner` that had to rebuild a
        simulator re-arms the heads its evicted predecessor had promoted,
        collapsing ``promotion_rounds_to_steady`` to ~1 round.
        """
        if isinstance(heads, ExecProfile):
            heads = set(heads.compiled) | set(heads.tier2_execs)
        threshold = self.promote_threshold
        if not threshold:
            return 0
        armed = 0
        for pc in heads:
            if pc in self._tier2:
                continue
            hot = self._heat.get(pc, 0)
            if hot < 0:
                continue
            if hot < threshold:
                self._heat[pc] = threshold
            armed += 1
        return armed

    def _promote(self, head: int) -> None:
        """Compile the superblock at ``head`` to a single Python function.

        On success the function is installed in ``_tier2`` and the head's
        heat entry dropped; heads whose first instruction already stops the
        trace (CSR/ecall/ebreak/fence.i/RoCC/undecodable) are marked
        permanently ineligible and stay on their tier-1 closures.
        """
        started = perf_counter()
        built = self._tier2_source(head)
        if built is None:
            self._heat[head] = self._T2_INELIGIBLE
            self.tier2_ineligible += 1
            return
        source, length, covered, spec_exact, spec_range, spec_based = built
        memory = self.memory
        namespace = {
            "R": self.hart.regs,
            "rd_": memory.read,
            "wr_": memory.write,
            "qv": memory.u64_views.get,
            "ql": memory.u64_view,
            "qc": memory.u64_view_create,
            "qw": memory.u32_views.get,
            "qwl": memory.u32_view,
            "qh": memory.u16_views.get,
            "qhl": memory.u16_view,
            "qb": memory._pages.get,
            "qwc": memory.u32_view_create,
            "qhc": memory.u16_view_create,
            "qbc": memory.page_create,
            "rh": memory._read_hooks,
            "wh": memory._write_hooks,
            "mem": memory,
            "E": self,
            "cb": self._code_bounds,
            **HELPERS,
            "_bx": _BlockExit,
            "_st": _Stopped,
            "_dg": _DEOPT,
        }
        exec(compile(source, f"<tier2@{head:#x}>", "exec"), namespace)
        self._tier2[head] = namespace["_t2"]
        if spec_exact or spec_range or spec_based:
            self._t2_spec[head] = (spec_exact, spec_range, spec_based)
        else:
            self._t2_spec.pop(head, None)
        self._heat.pop(head, None)
        # The trace may span PCs the tier-1 tables never compiled (inlined
        # jal targets); the store-invalidation range must cover all of them.
        bounds = self._code_bounds
        lo = min(covered)
        hi = max(covered) + 4
        if lo < bounds[0]:
            bounds[0] = lo
        if hi > bounds[1]:
            bounds[1] = hi
        seconds = perf_counter() - started
        self.tier2_blocks += 1
        self.tier2_compile_seconds += seconds
        self.tier2_source_chars += len(source)
        if self.profile is not None:
            self.profile.compiled[head] = (length, seconds)

    def _tier2_source(self, head: int):  # noqa: C901 - one arm per instruction
        """Generate straight-line Python source for the trace at ``head``.

        Returns ``(source, trace_length, covered_pcs)`` or ``None`` when the
        head instruction itself ends the trace.  The emitted function has the
        signature ``_t2(fuel) -> (next_pc, instructions_retired)`` and is
        bound (via default-argument injection at exec time) to this
        executor's register file, memory accessors and code bounds.

        Beyond plain straight-line folding, the walker applies four
        fragmentation-killing transforms:

        * **Constant link propagation** — ``lui``/``auipc``/``jal`` (and
          ``addi`` chains over them) record statically-known register values;
          a ``jalr`` whose base register is known (the ``ret`` of a callee
          entered via an inlined ``jal``) *continues* the trace at the folded
          target instead of exiting, fusing call + body + return.
        * **Constant branch folding** — a branch whose operands are both
          statically known is decided at compile time; the walker keeps
          tracing along the taken side and emits no test at all.
        * **Loop nests** — any backward edge to a position already in the
          trace (a closing branch, an inlined ``jal``/``ret``, or falling
          into the top of a walked span) wraps that span in a native
          ``while 1:``, so loops discovered mid-trace run without leaving
          the compiled function.  A conditional edge closes its loop with a
          ``break`` so the walk continues on the fall-through path outside
          it — which lets a later *outer* back-edge wrap the entire nest
          (the common case: an inner digit loop inside an outer word loop).
          ``backedge`` refuses a wrap that would cross a closed loop's
          boundary, break open-loop nesting, or re-use a constant that goes
          stale across iterations, and the edge degrades to a trace exit.
        * **If-guarded skip diamonds** — a short forward branch over
          straight-line instructions compiles to a native ``if``/``else``
          inside the trace (with an ``n -= k`` retire-count compensation on
          the taken path) instead of ending it.

        The retire-count model: ``n`` accumulates completed loop iterations
        and skip compensations; every exit returns ``n`` plus the exiting
        instruction's static 1-based trace position, which equals the exact
        number of instructions retired by this call.

        Folding and looping interact through a restart protocol: when a
        back-edge fails *only* because a peeled-first-iteration constant
        (e.g. the ``li`` that zeroes a loop counter) was folded into the
        loop body, the walk restarts with those fold sites banned so they
        emit dynamic code instead, letting the loop wrap.  Each restart
        bans at least one new site, so the driver terminates; the final
        attempt demotes any remaining stale edges to plain exits.
        """
        banned = set()
        for _ in range(10):
            try:
                return self._tier2_walk(head, banned, final=False)
            except _Rewalk as retry:
                banned.update(retry.pcs)
        return self._tier2_walk(head, banned, final=True)

    def _tier2_walk(self, head: int, banned, final):  # noqa: C901
        """One trace-walk attempt for :meth:`_tier2_source`.

        ``banned`` pcs never consult the constant tracker; a stale-fold
        back-edge raises :class:`_Rewalk` unless ``final`` is set.
        """
        touched = set()   # registers held as locals (loaded in the prologue)
        written = set()   # registers ever written (stored by the epilogue)
        body = []         # (indent, text) lines of the trace body
        covered = []      # every pc folded into this function
        visited = set()
        consts = {}       # reg -> statically-known value along the trace
        ubound = {}       # reg -> proven upper bound of its current value
        # Entry-value speculation source (None once the head has deopted
        # too often) and the registers actually speculated on this walk.
        spec_vals = (
            self.hart.regs
            if self._t2_deopts.get(head, 0) < self._T2_MAX_DEOPTS
            else None
        )
        spec_used = set()   # range-speculated registers (bound guard)
        spec_exact = {}     # exactly-speculated registers -> pinned value
        nox = self._t2_nospec.get(head, ())
        nor = self._t2_norange.get(head, ())
        nobase = self._t2_nobase.get(head, ())
        kpages = {}         # (lane, page) -> prologue-bound view local
        kbases = {}         # base reg -> pinned-base lane bookkeeping
        need_hookgen = [False]  # a compile folded a "no hook here" check
        hook_gen0 = self.memory.hook_gen
        posbox = [0]      # 1-based position of the instruction being emitted

        def reg(r):
            if r == 0:
                return "0"
            touched.add(r)
            return f"x{r}"

        def ubget(r):
            """Peek ``r``'s proven upper bound (no commitment), or None.

            A register that still holds its function-entry value (never
            written in the trace so far) may get a *speculated* bound when
            its live value at promotion time is small: the render step emits
            a one-time entry guard over every register speculated this way,
            so a bound consulted here is genuinely true on every call that
            gets past the guard (violations deoptimize before any state
            change).
            """
            if r == 0:
                return 0
            ub = ubound.get(r)
            if (
                ub is None
                and spec_vals is not None
                and r not in last_write
                and r not in nor
                and spec_vals[r] <= self._T2_SPEC_BOUND
            ):
                spec_used.add(r)
                reg(r)  # guard reads the local: force the prologue load
                ub = self._T2_SPEC_BOUND
                ubound[r] = ub
            return ub

        def kreg(r):
            """True when ``r``'s value is statically known, speculating the
            entry value if needed.

            The strongest speculation tier: a register never written in the
            trace so far is pinned to its live value at promotion time and
            becomes a compile-time constant (folding addresses, branches and
            arithmetic derived from it).  The entry guard checks the exact
            value; a miss deoptimizes and the dispatch loop bans the stale
            register from future compiles of this head, so re-promotion
            converges on the genuinely loop-invariant set.
            """
            if r in consts:
                return True
            if (
                spec_vals is not None
                and r != 0
                and r not in last_write
                and r not in nox
            ):
                v = spec_vals[r]
                spec_exact[r] = v
                consts[r] = v
                const_def[r] = 0
                ubound[r] = v
                return True
            return False

        def kbase(rs1, imm, size, pc, store):
            """Pinned-base lane admission for a load/store off ``rs1``.

            For a base register never written in the trace (typically a
            buffer pointer that *varies* across calls, so exact pinning was
            deopt-banned), the prologue binds its page view and element
            index once per call; every access off it becomes a single
            indexed view access plus, for nonzero offsets, one page-crossing
            compare with a scalar fallback.  Entry-guard terms (emitted at
            render time from the recorded bookkeeping) enforce base
            alignment and that no MMIO hook lies inside the accessed window,
            so the per-access alignment and hook checks fold away; the
            compile-time hook set itself is pinned by the hook-generation
            guard.  Returns ``(view, index, element_offset, limit)`` names
            for the emitter, or None when the access does not qualify.
            """
            if (
                not HOST_IS_LITTLE_ENDIAN
                or not self._direct_memory
                or spec_vals is None
                or rs1 == 0
                or imm < 0
                or imm % size
                or pc in banned
                or rs1 in last_write
                or rs1 in nobase
                or spec_vals[rs1] & (size - 1)
            ):
                return None
            info = kbases.get(rs1)
            if info is None:
                info = kbases[rs1] = {
                    "align": 1, "span": 0, "sspan": 0, "lanes": set(),
                }
            lane, shift = _T2_LANES[size]
            info["align"] = max(info["align"], size)
            info["span"] = max(info["span"], imm + size)
            if store:
                info["sspan"] = max(info["sspan"], imm + size)
            info["lanes"].add(lane)
            need_hookgen[0] = True
            ubuse(pc, rs1)
            reg(rs1)  # the prologue bindings read the local
            kk = imm >> shift
            limit = (4096 >> shift) - kk if kk else None
            return f"p{lane}{rs1}", f"i{lane}{rs1}", kk, limit

        def ubuse(pc, *regs):
            """Commit to the peeked bounds of ``regs``.

            Appends a fold entry per register so a later back-edge wrap
            re-checks that each bound's defining write still dominates this
            use — the same staleness protocol as constant folding.  A bound
            defined before a loop head and consumed inside the loop is
            invalid when the register is rewritten in the loop body; the
            wrap then bans this pc and rewalks, and the banned pc skips
            bound consultation entirely, so the refusal self-heals.
            """
            for r in regs:
                if r:
                    folds.append((posbox[0], r, last_write.get(r, 0), pc))

        def sreg(r, pc=None):
            if r == 0:
                return "0"
            if pc is not None and pc not in banned:
                ub = ubget(r)
                if ub is not None and ub < 0x8000000000000000:
                    # Proven < 2**63: non-negative as a two's-complement
                    # value, so the signed view is the value itself.
                    ubuse(pc, r)
                    return reg(r)
            return f"(({reg(r)} ^ 0x8000000000000000) - 0x8000000000000000)"

        M = "0xFFFFFFFFFFFFFFFF"

        def setreg(r, expr, ind=0, known=None, record=True, ub=None):
            # record=False marks guard-diamond emission: the write is
            # conditional, so it establishes no constant or bound.
            touched.add(r)
            written.add(r)
            prefix = f"x{r} = "
            if (
                record
                and known is not None
                and body
                and body[-1][0] == ind
                and body[-1][1].startswith(prefix)
                and body[-1][1][len(prefix):].isdigit()
            ):
                # The lui+addi idiom: the previous line is an unconditional
                # constant write to the same register with no line (so no
                # exit) in between, so it is dead — replace it instead
                # of executing both.  The fused-away instruction's position
                # can no longer become a loop head (its own line is gone),
                # which ``backedge`` enforces via ``fused_pos``.
                body[-1] = (ind, prefix + expr)
                fused_pos.add(posbox[0])
            else:
                body.append((ind, prefix + expr))
            last_write[r] = posbox[0]
            if record and known is not None:
                consts[r] = known
                const_def[r] = posbox[0]
                ubound[r] = known
            else:
                consts.pop(r, None)
                # A full-width bound proves nothing; conditional writes
                # (record=False) invalidate any bound but establish none.
                if record and ub is not None and ub < MASK64:
                    ubound[r] = ub
                else:
                    ubound.pop(r, None)

        def fold(rs, pc):
            """Record a constant consumption for the loop-staleness check."""
            folds.append((posbox[0], rs, const_def[rs], pc))
            return consts[rs]

        def move(rd, rs1, u1, pc, ind, record):
            """``rd = rs1``: register values are canonically masked already."""
            if u1 is not None and pc not in banned:
                ubuse(pc, rs1)
            else:
                u1 = None
            setreg(rd, reg(rs1), ind, record=record, ub=u1)

        def setloaded(rd, load, bits, ind, record):
            """``rd`` = loaded ``bits``: sign-extended, or (unsigned) with
            its access width as a free bound."""
            if load.sign:
                setreg(rd, load.extend(bits), ind, record=record)
            else:
                width = (1 << (8 * load.size)) - 1
                setreg(rd, bits, ind, record=record,
                       ub=width if load.size < 8 else None)

        def emit_plain(decoded, pc, ind, pos, record):
            """Emit one guardable instruction (ALU/load/store/fence).

            ``pos`` is the instruction's static 1-based trace position (used
            by store exits); returns False if the mnemonic is not guardable.
            """
            posbox[0] = pos
            mnemonic = decoded.mnemonic
            rd = decoded.rd
            rs1 = decoded.rs1
            rs2 = decoded.rs2
            imm = decoded.imm
            if mnemonic in ALU:
                if rd == 0:
                    return True  # writes to x0 are discarded; pure no-op
                op = ALU[mnemonic]
                # The table's expression is the default; the arms below fold
                # constants or use proven bounds to emit something cheaper.
                if (
                    mnemonic in _T2_FOLDS
                    and pc not in banned
                    and (rs1 == 0 or kreg(rs1))
                    and (rs2 == 0 or kreg(rs2))
                ):
                    # Both operands statically known (possibly by pinning
                    # entry values): the result is a constant, which keeps
                    # address chains like ``base + scaled-index`` foldable
                    # through register-register arithmetic.
                    v1 = 0 if rs1 == 0 else fold(rs1, pc)
                    v2 = 0 if rs2 == 0 else fold(rs2, pc)
                    known = op.value(v1, v2, imm, pc)
                    setreg(rd, f"{known}", ind, known=known, record=record)
                    return True
                if op.constant:  # lui / auipc
                    known = op.value(0, 0, imm, pc)
                    setreg(rd, f"{known}", ind, known=known, record=record)
                    return True
                expr = None    # a cheaper form of the table's expression
                ub = None      # proven upper bound of the result
                spc = None     # pc: signed views may use proven bounds
                if mnemonic in ("add", "mul"):
                    u1 = ubget(rs1)
                    u2 = ubget(rs2)
                    if u1 is not None and u2 is not None and pc not in banned:
                        bound = u1 + u2 if mnemonic == "add" else u1 * u2
                        if bound <= MASK64:
                            # Range analysis proves the result can't wrap:
                            # elide the 64-bit mask (the dominant per-line
                            # cost in hot traces).
                            ubuse(pc, rs1, rs2)
                            sym = "+" if mnemonic == "add" else "*"
                            expr = f"{reg(rs1)} {sym} {reg(rs2)}"
                            ub = bound
                elif mnemonic == "addi":
                    known = None
                    if rs1 == 0:
                        known = op.value(0, 0, imm, pc)
                    elif pc not in banned and kreg(rs1):
                        known = op.value(fold(rs1, pc), 0, imm, pc)
                    u1 = ubget(rs1)
                    if known is not None:
                        setreg(rd, f"{known}", ind, known=known, record=record)
                        return True
                    if imm == 0:
                        if rd != rs1:
                            move(rd, rs1, u1, pc, ind, record)
                        return True
                    if (
                        imm > 0 and u1 is not None
                        and u1 + imm <= MASK64 and pc not in banned
                    ):
                        ubuse(pc, rs1)
                        expr = f"{reg(rs1)} + {imm}"
                        ub = u1 + imm
                elif mnemonic == "addiw":
                    known = None
                    if rs1 == 0:
                        known = op.value(0, 0, imm, pc)
                    elif rs1 in consts and pc not in banned:
                        known = op.value(fold(rs1, pc), 0, imm, pc)
                    u1 = ubget(rs1)
                    if known is not None:
                        setreg(rd, f"{known}", ind, known=known, record=record)
                        return True
                    if (
                        imm >= 0 and u1 is not None
                        and u1 + imm <= 0x7FFFFFFF and pc not in banned
                    ):
                        # The 32-bit sum can't reach the sign bit: truncation
                        # and sign-extension are both the identity.
                        ubuse(pc, rs1)
                        if imm == 0:
                            if rd != rs1:
                                setreg(rd, reg(rs1), ind, record=record, ub=u1)
                            return True
                        expr = f"{reg(rs1)} + {imm}"
                        ub = u1 + imm
                elif mnemonic == "and":
                    # x & y is bounded by either operand's bound; taking the
                    # smaller one (when known) costs no emitted code.
                    u1 = ubget(rs1)
                    u2 = ubget(rs2)
                    if pc not in banned and (u1 is not None or u2 is not None):
                        if u1 is not None and (u2 is None or u1 <= u2):
                            ubuse(pc, rs1)
                            ub = u1
                        else:
                            ubuse(pc, rs2)
                            ub = u2
                elif mnemonic == "andi":
                    ub = imm & MASK64  # free bound: the mask itself
                elif mnemonic in ("or", "xor"):
                    u1 = ubget(rs1)
                    u2 = ubget(rs2)
                    if u1 is not None and u2 is not None and pc not in banned:
                        # No bit above either operand's highest possible bit
                        # can be set.
                        ubuse(pc, rs1, rs2)
                        ub = (1 << max(u1.bit_length(), u2.bit_length())) - 1
                elif mnemonic in ("ori", "xori", "srli") and imm == 0:
                    if rd != rs1:
                        move(rd, rs1, ubget(rs1), pc, ind, record)
                    return True
                elif mnemonic in ("ori", "xori"):
                    u1 = ubget(rs1)
                    if imm > 0 and u1 is not None and pc not in banned:
                        ubuse(pc, rs1)
                        ub = (1 << max(u1.bit_length(), imm.bit_length())) - 1
                elif mnemonic == "slli":
                    u1 = ubget(rs1)
                    if rs1 != 0 and pc not in banned and kreg(rs1):
                        known = op.value(fold(rs1, pc), 0, imm, pc)
                        setreg(rd, f"{known}", ind, known=known, record=record)
                        return True
                    if imm == 0:
                        if rd != rs1:
                            move(rd, rs1, u1, pc, ind, record)
                        return True
                    if (
                        u1 is not None and (u1 << imm) <= MASK64
                        and pc not in banned
                    ):
                        ubuse(pc, rs1)
                        expr = f"{reg(rs1)} << {imm}"
                        ub = u1 << imm
                elif mnemonic in ("srl", "remu"):
                    # Right shifts never grow the value, and x % y <= x
                    # (the y == 0 arm returns x itself): the dividend's
                    # bound carries over free of emitted code.
                    u1 = ubget(rs1)
                    if u1 is not None and pc not in banned:
                        ubuse(pc, rs1)
                        ub = u1
                elif mnemonic == "srli":
                    ub = MASK64 >> imm  # free bound: a register is <= MASK64
                elif mnemonic in ("sra", "srai"):
                    u1 = ubget(rs1)
                    if (
                        u1 is not None and u1 < 0x8000000000000000
                        and pc not in banned
                    ):
                        # Proven non-negative: the arithmetic shift is the
                        # logical one, with no sign trick and no result mask.
                        ubuse(pc, rs1)
                        op = ALU["srl" if mnemonic == "sra" else "srli"]
                        ub = u1 if mnemonic == "sra" else u1 >> imm
                elif mnemonic in ("slt", "slti", "sltu", "sltiu"):
                    ub = 1
                    spc = pc
                if expr is None:
                    expr = _t2_renderer(op)(reg, sreg, rs1, rs2, imm, pc, spc)
                setreg(rd, expr, ind, record=record, ub=ub)
                return True
            if mnemonic in LOADS:
                load = LOADS[mnemonic]
                size = load.size
                # Constant-address fast lane: a base register pinned by
                # exact-value speculation (or x0) makes the address a
                # compile-time constant, so the page view is bound once in
                # the prologue and the whole guard diamond collapses to a
                # single C-level index.  Alignment and "no read hook here"
                # are checked at compile time; the hook check is kept sound
                # by the hook-generation entry guard.  The view aliases the
                # page bytearray, so stores through any path stay coherent.
                ka = None
                if pc not in banned and HOST_IS_LITTLE_ENDIAN and self._direct_memory:
                    if rs1 == 0:
                        ka = imm & MASK64
                    elif kreg(rs1):
                        ka = (consts[rs1] + imm) & MASK64
                if (
                    ka is not None
                    and ka & (size - 1) == 0
                    and ka not in self.memory._read_hooks
                ):
                    if rs1 != 0:
                        fold(rs1, pc)
                    need_hookgen[0] = True
                    if rd == 0:
                        # No hook at this address (guarded): the access has
                        # no observable effect, so emit nothing at all.
                        return True
                    lane = {8: "q", 4: "w", 2: "h", 1: "b"}[size]
                    key = (lane, ka >> 12)
                    name = kpages.get(key)
                    if name is None:
                        name = kpages[key] = f"v{lane}{ka >> 12:x}"
                    shift = {8: 3, 4: 2, 2: 1, 1: 0}[size]
                    fetch = f"{name}[{(ka & 4095) >> shift}]"
                    setloaded(rd, load, fetch, ind, record)
                    return True
                lane = None if rd == 0 or ka is not None else kbase(
                    rs1, imm, size, pc, store=False
                )
                if lane is not None:
                    pv, iv, kk, limit = lane
                    if limit is None:
                        fetch = f"{pv}[{iv}]"
                    else:
                        fetch = (
                            f"{pv}[{iv} + {kk}] if {iv} < {limit}"
                            f" else rd_(({reg(rs1)} + {imm}) & {M}, {size})"
                        )
                    if load.sign:
                        fetch = f"({fetch})"
                    setloaded(rd, load, fetch, ind, record)
                    return True
                # Register values are canonically masked, so a zero-offset
                # address needs no add-and-mask (and no ``a =`` temp).
                simple = rs1 != 0 and imm == 0
                av = reg(rs1) if simple else "a"
                if simple:
                    addr = av
                else:
                    u1 = ubget(rs1)
                    if (
                        imm > 0 and u1 is not None
                        and u1 + imm <= MASK64 and pc not in banned
                    ):
                        ubuse(pc, rs1)
                        addr = f"{reg(rs1)} + {imm}"
                    else:
                        addr = f"({reg(rs1)} + {imm}) & {M}"
                if rd != 0 and HOST_IS_LITTLE_ENDIAN and self._direct_memory:
                    # Aligned loads skip the SparseMemory call: a cast page
                    # view ('Q'/'I'/'H', or the page bytearray for bytes)
                    # indexes the same bytes the scalar path would unpack.
                    # Read hooks force the slow path; a missing page reads
                    # as zero without allocating (an aligned access never
                    # crosses a page).  Sign-extending loads land in a temp
                    # and fix up below.
                    target = "t" if load.sign else f"x{rd}"
                    if not load.sign:
                        touched.add(rd)
                        written.add(rd)
                        last_write[rd] = posbox[0]
                        consts.pop(rd, None)
                        # Free bound: an unsigned sub-8 load fits its width.
                        if record and size < 8:
                            ubound[rd] = (1 << (8 * size)) - 1
                        else:
                            ubound.pop(rd, None)
                    if not simple:
                        body.append((ind, f"a = {addr}"))
                    if size == 8:
                        guard = f"{av} & 7 or rh"
                        fast = (
                            f"q[({av} & 4095) >> 3] if (q := qv({av} >> 12)"
                            f" or ql({av} >> 12)) is not None else 0"
                        )
                    elif size == 4:
                        guard = f"{av} & 3 or rh"
                        fast = (
                            f"w[({av} & 4095) >> 2] if (w := qw({av} >> 12)"
                            f" or qwl({av} >> 12)) is not None else 0"
                        )
                    elif size == 2:
                        guard = f"{av} & 1 or rh"
                        fast = (
                            f"h[({av} & 4095) >> 1] if (h := qh({av} >> 12)"
                            f" or qhl({av} >> 12)) is not None else 0"
                        )
                    else:
                        guard = "rh"
                        fast = (
                            f"p[{av} & 4095]"
                            f" if (p := qb({av} >> 12)) is not None else 0"
                        )
                    body.append((ind, f"if {guard}:"))
                    body.append((ind + 1, f"{target} = rd_({av}, {size})"))
                    body.append((ind, "else:"))
                    body.append((ind + 1, f"{target} = {fast}"))
                    if load.sign:
                        setreg(rd, load.extend("t"), ind, record=record)
                    return True
                access = f"rd_({addr}, {size})"
                if rd == 0:
                    # x0 loads still perform the access (MMIO side effects).
                    body.append((ind, access))
                else:
                    setloaded(rd, load, access, ind, record)
            elif mnemonic in STORES:
                size = STORES[mnemonic]
                # Constant-address fast lane (mirror of the load lane): the
                # alignment and write-hook checks fold away at compile time,
                # leaving only the self-modifying-code overlap test — whose
                # first comparison short-circuits for any data-segment
                # address — in front of a single C-level view store.
                ka = None
                if pc not in banned and HOST_IS_LITTLE_ENDIAN and self._direct_memory:
                    if rs1 == 0:
                        ka = imm & MASK64
                    elif kreg(rs1):
                        ka = (consts[rs1] + imm) & MASK64
                if (
                    ka is not None
                    and ka & (size - 1) == 0
                    and ka not in self.memory._write_hooks
                ):
                    if rs1 != 0:
                        fold(rs1, pc)
                    need_hookgen[0] = True
                    lane = {8: "q", 4: "w", 2: "h", 1: "b"}[size]
                    key = (lane, ka >> 12)
                    name = kpages.get(key)
                    if name is None:
                        name = kpages[key] = f"v{lane}{ka >> 12:x}"
                    shift = {8: 3, 4: 2, 2: 1, 1: 0}[size]
                    if size == 8:
                        value = reg(rs2)
                    else:
                        value = f"{reg(rs2)} & {(1 << (8 * size)) - 1:#x}"
                    body.append((
                        ind, f"if {ka} < cb[1] and {ka + size} > cb[0]:"
                    ))
                    body.append((ind + 1, f"wr_({ka}, {size}, {reg(rs2)})"))
                    body.append((ind + 1, f"E._invalidate({ka}, {size})"))
                    body.append((ind + 1, f"raise _bx({pc + 4}, n + {pos})"))
                    body.append((ind, "else:"))
                    body.append((
                        ind + 1, f"{name}[{(ka & 4095) >> shift}] = {value}"
                    ))
                    return True
                lane = None if ka is not None else kbase(
                    rs1, imm, size, pc, store=True
                )
                if lane is not None:
                    pv, iv, kk, limit = lane
                    if size == 8:
                        value = reg(rs2)
                    else:
                        value = f"{reg(rs2)} & {(1 << (8 * size)) - 1:#x}"
                    sflag = f"sb{rs1}"
                    if limit is None:
                        body.append((ind, f"if {sflag}:"))
                        body.append((ind + 1, f"{pv}[{iv}] = {value}"))
                    else:
                        body.append((
                            ind, f"if {sflag} and {iv} < {limit}:"
                        ))
                        body.append((ind + 1, f"{pv}[{iv} + {kk}] = {value}"))
                    # Slow arm: page-crossing or possible code overlap.  No
                    # hook can match in the guarded window, so no E.stop
                    # check is needed; the overlap test mirrors the scalar
                    # store path and exits through the SMC protocol.
                    body.append((ind, "else:"))
                    if imm:
                        body.append((
                            ind + 1, f"a = ({reg(rs1)} + {imm}) & {M}"
                        ))
                        sav = "a"
                    else:
                        sav = reg(rs1)
                    body.append((ind + 1, f"wr_({sav}, {size}, {reg(rs2)})"))
                    body.append((
                        ind + 1,
                        f"if {sav} < cb[1] and {sav} + {size} > cb[0]:",
                    ))
                    body.append((ind + 2, f"E._invalidate({sav}, {size})"))
                    body.append((
                        ind + 2, f"raise _bx({pc + 4}, n + {pos})"
                    ))
                    return True
                simple = rs1 != 0 and imm == 0
                av = reg(rs1) if simple else "a"
                if not simple:
                    u1 = ubget(rs1)
                    if (
                        imm > 0 and u1 is not None
                        and u1 + imm <= MASK64 and pc not in banned
                    ):
                        ubuse(pc, rs1)
                        body.append((ind, f"a = {reg(rs1)} + {imm}"))
                    else:
                        body.append((ind, f"a = ({reg(rs1)} + {imm}) & {M}"))
                if size == 8 and HOST_IS_LITTLE_ENDIAN and self._direct_memory:
                    # Aligned 64-bit stores write through the cast-'Q' view.
                    # One fused guard covers every slow case — unaligned,
                    # write-hooked (matched by exact address, as in
                    # ``SparseMemory.write``), or overlapping compiled code —
                    # so the fast arm is a single view store with no checks
                    # after it.  The slow arm stores via the scalar path
                    # (which runs the hooks and so is the only one that can
                    # set ``E.stop``), then takes the self-modifying-code
                    # exit if the overlap test was what routed it here.
                    body.append((
                        ind,
                        f"if {av} & 7 or {av} in wh"
                        f" or ({av} < cb[1] and {av} + 8 > cb[0]):",
                    ))
                    body.append((ind + 1, f"wr_({av}, 8, {reg(rs2)})"))
                    body.append((ind + 1, f"if {av} < cb[1] and {av} + 8 > cb[0]:"))
                    body.append((ind + 2, f"E._invalidate({av}, 8)"))
                    body.append((ind + 2, f"raise _bx({pc + 4}, n + {pos})"))
                    body.append((ind + 1, "if E.stop:"))
                    body.append((ind + 2, f"raise _st({pc + 4}, n + {pos})"))
                    body.append((ind, "else:"))
                    body.append((
                        ind + 1,
                        f"(qv({av} >> 12) or qc({av} >> 12))"
                        f"[({av} & 4095) >> 3] = {reg(rs2)}",
                    ))
                    return True
                body.append((ind, f"wr_({av}, {size}, {reg(rs2)})"))
                # Same overlap test as the tier-1 store closures; the raise
                # leaves through the epilogue, which writes the locals back.
                body.append((ind, f"if {av} < cb[1] and {av} + {size} > cb[0]:"))
                body.append((ind + 1, f"E._invalidate({av}, {size})"))
                body.append((ind + 1, f"raise _bx({pc + 4}, n + {pos})"))
                body.append((ind, "if E.stop:"))
                body.append((ind + 1, f"raise _st({pc + 4}, n + {pos})"))
            elif mnemonic == "fence":
                pass  # memory-ordering no-op on this single-hart model
            else:
                return False
            return True

        pc = head
        count = 0
        open_end = True
        next_check = self._T2_CHECK  # next mid-trace fuel-check position
        pos_by_pc = {}    # pc -> 1-based static position (top-level only)
        first_line = {}   # pc -> body index where its emission starts
        const_def = {}    # reg -> position of the write that made it constant
        folds = []        # (use_pos, reg, def_pos) for every consumed constant
        last_write = {}   # reg -> last position that wrote it
        loops = []        # open loops: (target_pc, while_line), innermost last
        closed = []       # finished loop spans: (while_line, break_line)
        fused_pos = set()  # positions folded into the previous line (no head)
        cur = 0           # current indent: one level per enclosing open loop

        def backedge(target, pos, cond=None):
            """Emit a native back-edge to ``target`` if one can be formed.

            ``pos`` is the 1-based position of the edge (the branching
            instruction, or the last retired position for a fall-into edge);
            ``cond`` guards the edge when the closing branch is conditional.
            The target's span is wrapped in ``while 1:``; a conditional edge
            immediately *closes* its loop with a ``break``, so the walk
            continues outside it and a later outer back-edge may legally
            wrap the whole nest.  (An open loop can never receive a second
            edge: its first one either closed it or ended the walk, so every
            call here opens a fresh loop.)  Returns False when no loop can
            be formed: the target is not a top-level trace position, the
            ``while`` would cross a closed loop's boundary or break the open
            loops' nesting, or a folded constant defined before the target
            would go stale when its register is rewritten inside the loop
            body (raises :class:`_Rewalk` instead on non-final attempts).
            """
            nonlocal cur
            if target not in pos_by_pc:
                return False
            j = pos_by_pc[target]
            if j in fused_pos:
                return False
            li = first_line[target]
            if loops and li <= loops[-1][1]:
                return False
            for start, end in closed:
                if start < li <= end:
                    return False
            stale = {
                use_pc
                for use_pos, r, def_pos, use_pc in folds
                if def_pos < j <= use_pos and last_write.get(r, -1) >= j
            }
            if stale:
                if not final:
                    raise _Rewalk(stale)
                return False
            indent = body[li][0] if li < len(body) else cur
            body.insert(li, (indent, "while 1:"))
            for i in range(li + 1, len(body)):
                entry = body[i]
                body[i] = (entry[0] + 1,) + entry[1:]
            for key, value in first_line.items():
                if value >= li:
                    first_line[key] = value + 1
            for i, (start, end) in enumerate(closed):
                if start >= li:
                    closed[i] = (start + 1, end + 1)
            cur += 1
            loops.append((target, li))
            ind = cur
            if cond is not None:
                body.append((cur, f"if {cond}:"))
                ind += 1
            body.append((ind, f"n += {pos - j + 1}"))
            body.append((ind, "if n >= fuel:"))
            ret = f"n + {j - 1}" if j > 1 else "n"
            body.append((ind + 1, f"return {target}, {ret}"))
            body.append((ind, "continue"))
            if cond is not None:
                _, while_line = loops.pop()
                body.append((cur, "break"))
                cur -= 1
                closed.append((while_line, len(body) - 1))
            return True

        unrolling = False  # const-guided re-trace of an already-walked span
        while count < self._MAX_T2:
            if pc in visited:
                if not unrolling:
                    # Fell into the top of an already-walked span: close it
                    # as a native loop when possible, else exit to its head.
                    if backedge(pc, count):
                        open_end = False
                    break
            else:
                unrolling = False
            try:
                decoded = self.fetch_decode(pc)
            except (DecodingError, SimulationError):
                break
            mnemonic = decoded.mnemonic
            rd = decoded.rd
            rs1 = decoded.rs1
            imm = decoded.imm
            if count >= next_check:
                # Mid-trace fuel check: bounds the budget overshoot of long
                # straight-line runs (back-edges carry their own checks).
                next_check += self._T2_CHECK
                body.append((cur, f"if n + {count} >= fuel:"))
                body.append((cur + 1, f"return {pc}, n + {count}"))
            first_line[pc] = len(body)
            pos_by_pc[pc] = count + 1
            posbox[0] = count + 1

            if mnemonic == "jalr":
                base = consts.get(rs1, None) if rs1 != 0 and pc not in banned else (
                    0 if rs1 == 0 else None
                )
                if base is not None:
                    # Known return/jump target: fuse through it and keep
                    # tracing (the ``ret`` of an inlined ``jal`` call).
                    target = (base + imm) & (MASK64 & ~1)
                    if rs1 != 0:
                        folds.append((count + 1, rs1, const_def[rs1], pc))
                    visited.add(pc)
                    covered.append(pc)
                    if rd:
                        setreg(rd, f"{pc + 4}", cur, known=pc + 4)
                    count += 1
                    if target in visited and not unrolling:
                        if backedge(target, count):
                            open_end = False
                            break
                        body.append((cur, f"return {target}, n + {count}"))
                        open_end = False
                        break
                    pc = target
                    continue
                body.append((cur, f"t = ({reg(rs1)} + {imm}) & 0xFFFFFFFFFFFFFFFE"))
                visited.add(pc)
                covered.append(pc)
                if rd:
                    # The link value is statically known even though the
                    # target is not; recording it lets an inlined callee's
                    # ``ret`` fold back to this call site.
                    setreg(rd, f"{pc + 4}", cur, known=pc + 4)
                count += 1
                # Value speculation: predict the dynamic target from the
                # register file as it stands at promotion time (for the
                # common indirect-call idiom — a function pointer that is
                # loop-invariant at runtime — this is exact).  A runtime
                # guard keeps the compiled code correct on any target: a
                # mispredict simply exits the trace where it used to end
                # unconditionally.
                guess = None
                if rs1 != 0:
                    guess = (self.hart.regs[rs1] + imm) & (MASK64 & ~1)
                    if guess == 0 or (guess in visited and not unrolling):
                        guess = None
                    else:
                        try:
                            self.fetch_decode(guess)
                        except (DecodingError, SimulationError):
                            guess = None
                if guess is not None:
                    body.append((cur, f"if t != {guess}:"))
                    body.append((cur + 1, f"return t, n + {count}"))
                    pc = guess
                    continue
                body.append((cur, f"return t, n + {count}"))
                open_end = False
                break

            if (
                mnemonic == "csrrs"
                and rs1 == 0
                and self.counter_csrs is not None
                and decoded.csr in self.counter_csrs
            ):
                # Pure read of a retire-counter CSR (the ``rdcycle`` idiom):
                # the value tier-1 would produce is the retire count *before*
                # this instruction, which is exactly ``E.retired`` at call
                # entry plus ``n`` plus this instruction's 0-based position —
                # still exact on every loop iteration, since ``n`` accumulates
                # completed iterations.  No mask: the count stays far below
                # 2**63.
                visited.add(pc)
                covered.append(pc)
                if rd:
                    setreg(rd, f"E.retired + n + {count}", cur)
                count += 1
                pc += 4
                continue

            # Trace stoppers: end before this instruction and fall back to
            # the tier-1 closures at the returned PC.
            if mnemonic in _T2_STOPPERS or mnemonic == "rocc":
                break
            if mnemonic not in _T2_SUPPORTED:
                break

            visited.add(pc)
            covered.append(pc)

            if mnemonic == "jal":
                target = (pc + imm) & MASK64
                if rd:
                    setreg(rd, f"{pc + 4}", cur, known=pc + 4)
                count += 1
                if target in visited and not unrolling:
                    if backedge(target, count):
                        open_end = False
                        break
                    body.append((cur, f"return {target}, n + {count}"))
                    open_end = False
                    break
                # Inline the jump: keep tracing at the target.
                pc = target
                continue

            if mnemonic in BRANCHES:
                branch = BRANCHES[mnemonic]
                rs2 = decoded.rs2
                taken = (pc + imm) & MASK64
                v1 = 0 if rs1 == 0 else consts.get(rs1, None)
                v2 = 0 if rs2 == 0 else consts.get(rs2, None)
                if v1 is not None and v2 is not None and pc not in banned:
                    # Both operands statically known: decide the branch at
                    # compile time and keep tracing along the taken side.
                    if rs1 != 0:
                        folds.append((count + 1, rs1, const_def[rs1], pc))
                    if rs2 != 0:
                        folds.append((count + 1, rs2, const_def[rs2], pc))
                    count += 1
                    if not branch.value(v1, v2, imm, pc):
                        pc += 4
                        continue
                    if taken in visited:
                        # Const-guided unrolling: the closing branch of a
                        # counted loop is decided at compile time, so the
                        # iterations can be peeled flat by re-tracing the
                        # body with the advanced constants — no loop test,
                        # no fuel check, no retire bookkeeping per
                        # iteration, and every derived address/const keeps
                        # folding.  Bounded by the body-size cap here and
                        # by ``_MAX_T2`` overall; loops too big (or whose
                        # trip count never resolves) wrap natively below.
                        if (
                            taken in pos_by_pc
                            and count - pos_by_pc[taken] + 1
                                <= self._T2_UNROLL_BODY
                            and count + (count - pos_by_pc[taken] + 1)
                                <= self._MAX_T2 - 64
                        ):
                            unrolling = True
                            pc = taken
                            continue
                        if backedge(taken, count):
                            open_end = False
                            break
                        body.append((cur, f"return {taken}, n + {count}"))
                        open_end = False
                        break
                    pc = taken
                    continue
                cond = _t2_renderer(branch)(reg, sreg, rs1, rs2, imm, pc, pc)
                if taken in visited and backedge(taken, count + 1, cond=cond):
                    count += 1
                    pc += 4
                    continue
                # Skip diamond: a short forward branch over straight-line
                # instructions stays inside the trace as an if/else; the
                # taken path compensates the retire count for the skipped
                # instructions.
                skip = (taken - (pc + 4)) >> 2 if taken > pc + 4 else 0
                if 1 <= skip <= _T2_MAX_SKIP and count + 1 + skip <= self._MAX_T2:
                    guarded = []
                    for i in range(skip):
                        gpc = pc + 4 + 4 * i
                        if gpc in visited and not unrolling:
                            guarded = None
                            break
                        try:
                            gdec = self.fetch_decode(gpc)
                        except (DecodingError, SimulationError):
                            guarded = None
                            break
                        if gdec.mnemonic not in _T2_GUARDABLE:
                            guarded = None
                            break
                        guarded.append((gpc, gdec))
                    if guarded:
                        count += 1
                        body.append((cur, f"if {cond}:"))
                        body.append((cur + 1, f"n -= {skip}"))
                        body.append((cur, "else:"))
                        for i, (gpc, gdec) in enumerate(guarded):
                            visited.add(gpc)
                            covered.append(gpc)
                            # Conditional writes invalidate any known
                            # constant but never establish one.
                            emit_plain(gdec, gpc, cur + 1, count + 1 + i, False)
                        count += skip
                        pc = taken
                        continue
                # Taken path exits the trace; fall-through continues it.
                body.append((cur, f"if {cond}:"))
                body.append((cur + 1, f"return {taken}, n + {count + 1}"))
                count += 1
                pc += 4
                continue

            if not emit_plain(decoded, pc, cur, count + 1, True):
                # pragma: no cover - _T2_SUPPORTED keeps this unreachable
                visited.discard(pc)
                covered.pop()
                break
            count += 1
            pc += 4

        if count == 0:
            return None
        if open_end:
            body.append((cur, f"return {pc}, n + {count}"))

        # Environment injection via default arguments: every binding becomes
        # a fast local instead of a global lookup in the generated function.
        lines = [
            "def _t2(fuel, R=R, rd_=rd_, wr_=wr_, qv=qv, ql=ql, qc=qc,"
            " qw=qw, qwl=qwl, qh=qh, qhl=qhl, qb=qb, qwc=qwc, qhc=qhc,"
            " qbc=qbc, rh=rh, wh=wh, mem=mem, E=E, cb=cb,"
            " d64=d64, r64=r64, d32=d32, r32=r32, _bx=_bx, _st=_st, _dg=_dg):"
        ]
        loads = sorted(touched)
        full = sorted(written)
        # Wide traces bind the whole register file in one unpack (a single
        # C-level UNPACK_SEQUENCE) and write it back with one slice-assign;
        # both beat dozens of per-register subscript lines.  Writing back an
        # untouched register is the identity — its local still holds the
        # prologue value, and nothing else mutates R while the function runs.
        all_regs = ", ".join(f"x{r}" for r in range(32))
        wide = len(loads) >= 8
        if wide:
            lines.append(f"    {all_regs} = R")
        else:
            for r in loads:
                lines.append(f"    x{r} = R[{r}]")
        # Entry guard for every speculation the walk consulted — hook-set
        # generation, exactly-pinned registers, then range bounds — as one
        # chained test before any state changes, so a miss can deoptimize
        # with nothing to unwind.  Exact pins read ``R`` directly (their
        # uses were folded away, so no local need exist); range bounds read
        # the prologue-loaded locals.
        terms = []
        if need_hookgen[0]:
            terms.append(f"mem.hook_gen != {hook_gen0}")
        for r in sorted(spec_exact):
            terms.append(f"R[{r}] != {spec_exact[r]}")
        for r in sorted(spec_used - spec_exact.keys()):
            terms.append(f"x{r} > {self._T2_SPEC_BOUND}")
        # Pinned-base terms: alignment, plus a window test per MMIO hook so
        # no access through the base can land on a hooked address (which
        # lets every per-access hook check fold away).
        hooks = sorted(
            set(self.memory._read_hooks) | set(self.memory._write_hooks)
        )
        for r in sorted(kbases):
            info = kbases[r]
            if info["align"] > 1:
                terms.append(f"x{r} & {info['align'] - 1}")
            for h in hooks:
                terms.append(f"{h - info['span']} < x{r} <= {h}")
        if terms:
            lines.append(f"    if {' or '.join(terms)}:")
            lines.append("        raise _dg")
        # Pinned page views: bound once per call, after the guard (a deopt
        # skips the work).  The create-variants make a view even for a page
        # nothing has touched yet — allocation is semantically invisible
        # (fresh pages read as zero either way) and removes any None case.
        creators = {"q": "qc", "w": "qwc", "h": "qhc", "b": "qbc"}
        for (lane, page), name in sorted(kpages.items()):
            lines.append(f"    {name} = {creators[lane]}({page})")
        # Pinned-base bindings: page view and element index of the base,
        # and (for stores) one code-overlap boolean covering the window.
        for r in sorted(kbases):
            info = kbases[r]
            for lane in sorted(info["lanes"]):
                shift = _T2_LANE_SHIFTS[lane]
                lines.append(
                    f"    p{lane}{r} = {creators[lane]}(x{r} >> 12)"
                )
                idx = f"(x{r} & 4095) >> {shift}" if shift else f"x{r} & 4095"
                lines.append(f"    i{lane}{r} = {idx}")
            if info["sspan"]:
                lines.append(
                    f"    sb{r} = x{r} >= cb[1]"
                    f" or x{r} + {info['sspan']} <= cb[0]"
                )
        lines.append("    n = 0")
        # One epilogue for every exit: returns, the ``_bx``/``_st`` raises
        # and loop fuel exits all leave through the ``finally``, which
        # writes the written registers back (so does an exception raised
        # by an MMIO hook, leaving ``R`` as of the faulting access).  Every
        # written register was loaded above, so a local the trace has not
        # yet assigned holds its entry value and writes it back unchanged.
        # The entry guard sits before the ``try``: a deopt leaves ``R``
        # untouched.
        indent = "    "
        if full:
            lines.append("    try:")
            indent = "        "
        for ind, text in body:
            lines.append(indent + "    " * ind + text)
        if full:
            lines.append("    finally:")
            if wide and len(full) >= 10:
                lines.append(f"        R[:] = ({all_regs})")
            else:
                lines.append(
                    "        " + "; ".join(f"R[{r}] = x{r}" for r in full)
                )
        return (
            "\n".join(lines) + "\n",
            count,
            covered,
            spec_exact,
            frozenset(spec_used - spec_exact.keys()),
            {r: (info["align"], info["span"]) for r, info in kbases.items()},
        )


#: Access size -> (view-lane letter, element-index shift) for the tier-2
#: pinned-base and constant-address memory lanes.
_T2_LANES = {8: ("q", 3), 4: ("w", 2), 2: ("h", 1), 1: ("b", 0)}
_T2_LANE_SHIFTS = {"q": 3, "w": 2, "h": 1, "b": 0}

#: Everything the tier-2 emitter can fold into straight-line source.  Any
#: other mnemonic ends the trace (defensive: the decoder and the emitter are
#: kept in sync, but an unknown instruction must fall back, not miscompile).
_T2_SUPPORTED = frozenset(ALU).union(LOADS, STORES, BRANCHES, {"jal", "fence"})

#: Instructions that may execute conditionally inside a skip-diamond guard:
#: anything without control transfer or synchronized-state needs.
_T2_GUARDABLE = frozenset(ALU).union(LOADS, STORES, {"fence"})

#: Register-register ops that fold to a constant when both operands are
#: statically known.
_T2_FOLDS = frozenset({"add", "sub", "and", "or", "xor", "mul"})
