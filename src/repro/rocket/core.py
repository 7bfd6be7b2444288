"""The Rocket-like cycle-accurate core emulator.

The emulator reuses the functional :class:`~repro.sim.executor.Executor` for
architectural state changes and layers a timing model over each retired
instruction:

* instruction fetch goes through the L1 I-cache,
* loads/stores go through the L1 D-cache (both with random replacement),
* taken branches and jumps pay a redirect penalty (static not-taken fetch),
* the multiplier is pipelined (latency visible only to dependent
  instructions), the divider blocks the pipeline,
* a load's value is available ``load_use_latency`` cycles later, so an
  immediately dependent instruction stalls,
* RoCC custom instructions pay the command latency, the accelerator's busy
  cycles and — when ``xd`` is set — the response latency while the core waits.

Cycles are attributed to the *software part* or the *hardware part* exactly as
Table IV of the paper splits them: every cycle spent issuing to, executing in,
or waiting on the accelerator is a hardware-part cycle; everything else is a
software-part cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import SimulationError
from repro.isa import csr as csrdefs
from repro.rocket.cache import Cache
from repro.rocket.config import RocketConfig
from repro.rocket.timing import (
    EXIT_BOOST,
    INELIGIBLE,
    PROMOTE_ARRIVALS,
    compile_timing_span,
)
from repro.sim.executor import (
    Executor,
    TC_DIV,
    TC_JUMP,
    TC_MEM,
    TC_MUL,
    TC_ROCC,
)
from repro.sim.hart import DEFAULT_STACK_TOP, Hart
from repro.sim.htif import Htif
from repro.sim.memory import SparseMemory
from repro.sim.spike import DEFAULT_MAX_INSTRUCTIONS, SimulationResult


@dataclass
class RocketResult(SimulationResult):
    """Functional result plus the timing measurements of the run."""

    cycles: int = 0
    sw_cycles: int = 0
    hw_cycles: int = 0
    icache_stats: object = None
    dcache_stats: object = None
    rocc_commands: int = 0
    accelerator: object = None

    @property
    def cycles_per_instruction(self) -> float:
        if not self.instructions_retired:
            return 0.0
        return self.cycles / self.instructions_retired

    def seconds(self, frequency_hz: int) -> float:
        """Wall-clock time of the run at a given core frequency."""
        return self.cycles / frequency_hz


class RocketEmulator:
    """Cycle-accurate-style emulation of one program on Rocket + accelerator."""

    def __init__(
        self,
        image,
        accelerator=None,
        config: RocketConfig = None,
        stack_top: int = DEFAULT_STACK_TOP,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        timing_tier: bool = True,
    ) -> None:
        self.image = image
        self.config = config if config is not None else RocketConfig()
        self.accelerator = accelerator
        self.max_instructions = max_instructions
        self.stack_top = stack_top

        self.memory = SparseMemory()
        self.memory.load_image(image)
        self.htif = Htif()
        self.htif.attach(self.memory)
        self.hart = Hart(pc=image.entry, stack_pointer=stack_top)

        rng = random.Random(self.config.seed)
        self.icache = Cache(self.config.icache, rng=random.Random(rng.random()))
        self.dcache = Cache(self.config.dcache, rng=random.Random(rng.random()))

        self.executor = Executor(
            self.hart,
            self.memory,
            csr_provider=self._read_counter,
            rocc=accelerator,
        )

        self.cycle = 0
        self.sw_cycles = 0
        self.hw_cycles = 0
        self.instructions_retired = 0
        self.rocc_commands = 0
        # Cycle numbers at which each integer register's value becomes
        # available to dependent instructions (load / mul shadow latencies).
        self._reg_ready = [0] * 32

        # Compiled timing tier (repro.rocket.timing): hot redirect targets,
        # and hot pcs right after a RoCC command, are compiled into
        # superblock functions that accumulate the cycle arithmetic in
        # locals.  Only the random replacement policy — the
        # paper's configuration — is compiled; LRU caches (and explicit
        # ``timing_tier=False``, which the lockstep tests use as the
        # reference) keep the per-instruction loop for every instruction.
        self.timing_tier = bool(
            timing_tier
            and self.config.icache.replacement == "random"
            and self.config.dcache.replacement == "random"
        )
        #: Redirect-arrival heat per target pc (INELIGIBLE marks pcs that
        #: must never compile); compiled span sources kept for diagnostics.
        self._timing_heat = {}
        self._timing_sources = {}
        self.timing_spans = 0
        self.timing_compiled_instructions = 0
        self.timing_interpreted_instructions = 0
        self.timing_compile_seconds = 0.0
        #: Total length of every compiled span source: what the compiles
        #: cost, independent of host speed.
        self.timing_source_chars = 0
        self.timing_deopts = 0

    # ------------------------------------------------------------------- CSRs
    def _read_counter(self, address: int) -> int:
        if address in (csrdefs.CYCLE, csrdefs.MCYCLE, csrdefs.TIME):
            return self.cycle
        if address in (csrdefs.INSTRET, csrdefs.MINSTRET):
            return self.executor.retired
        return 0

    # ----------------------------------------------------------- timing tier
    def _compile_timing(self, pc: int) -> None:
        """Compile the timing span at ``pc`` or mark it permanently cold."""
        started = perf_counter()
        built = compile_timing_span(self, pc)
        if built is None:
            self._timing_heat[pc] = INELIGIBLE
            return
        fn, min_fuel, source = built
        # The executor owns code-change visibility: fence.i and
        # self-modifying stores clear ``_tblocks`` with every other
        # compiled artifact, so a span can never outlive its code.
        self.executor._tblocks[pc] = (fn, min_fuel)
        self._timing_sources[pc] = source
        self._timing_heat.pop(pc, None)
        self.timing_spans += 1
        self.timing_compile_seconds += perf_counter() - started
        self.timing_source_chars += len(source)

    # ------------------------------------------------------------------ reset
    def reset(self) -> None:
        """Rewind for another timed run, keeping the timing compiler warm.

        The paper's measurement starts from cold caches, so unlike
        :meth:`repro.sim.spike.SpikeSimulator.reset` the microarchitectural
        state is rewound too: cache lines are invalidated *in place* (the
        compiled spans bind the way lists), the cache PRNGs are reseeded to
        the construction sequence, and the statistics/cycle/ready state is
        zeroed.  What survives is everything *learned*: decoded
        instructions, tier-1 closures, compiled timing spans and their
        heat.  A warm rerun is therefore cycle-identical and
        result-identical to a fresh emulator over the same memory image.

        Memory contents are *not* touched; callers rerunning with new
        operand vectors must rewrite the operand region and zero the
        scratch/result buffers first (the :class:`~repro.sim.batch.
        BatchRunner` protocol).
        """
        hart = self.hart
        regs = hart.regs
        regs[:] = [0] * len(regs)
        regs[2] = self.stack_top
        hart.pc = self.image.entry
        self.htif.reset()
        executor = self.executor
        executor.stop = False
        executor.exit_requested = False
        executor.exit_code = 0
        executor.retired = 0
        if self.accelerator is not None:
            self.accelerator.reset()
        # Reseed the cache PRNGs exactly as construction did: one parent
        # stream (config.seed) seeds the I-cache then the D-cache, so the
        # replacement draws of a warm run replay the cold run bit for bit.
        rng = random.Random(self.config.seed)
        self.icache.rng.seed(rng.random())
        self.dcache.rng.seed(rng.random())
        self.icache.reset()
        self.dcache.reset()
        self.cycle = 0
        self.sw_cycles = 0
        self.hw_cycles = 0
        self.instructions_retired = 0
        self.rocc_commands = 0
        self._reg_ready[:] = [0] * 32

    # -------------------------------------------------------------------- run
    def run(self) -> RocketResult:
        """Run the program to completion and return timing + functional results.

        The per-instruction timing model is inlined here with every loop
        invariant hoisted into locals: at cycle-accurate speeds the attribute
        traffic of a method-per-step structure dominates the runtime.  The
        externally visible counters are kept exact where the simulated
        program can observe them (``self.cycle`` for ``rdcycle``,
        ``executor.retired`` for ``rdinstret``); the rest are accumulated
        locally and written back when the loop leaves.
        """
        executor = self.executor
        htif = self.htif
        hart = self.hart
        config = self.config
        limit = self.max_instructions
        icache = self.icache
        dcache = self.dcache
        icache_access = icache.access
        dcache_access = dcache.access
        timed_get = executor._timed.get
        timed_entry = executor._timed_entry
        ready = self._reg_ready
        load_use_latency = config.load_use_latency_cycles
        mul_latency = config.mul_latency_cycles
        div_latency = config.div_latency_cycles
        rocc_cmd_latency = config.rocc_cmd_latency_cycles
        rocc_resp_latency = config.rocc_resp_latency_cycles
        rocc_issue = (
            self.accelerator.pipeline.issue
            if self.accelerator is not None else None
        )
        jump_penalty = config.jump_penalty_cycles
        branch_penalty = config.branch_penalty_cycles

        # Random-replacement caches (Rocket's policy) probe inline below and
        # count accesses and misses in locals (every access is a hit or a
        # miss, so hits are settled as the difference); a miss allocates
        # through Cache.fill, the one random fill the compiled spans and
        # Cache.access also use.  The LRU variant calls Cache.access.
        ic_inline = icache.config.replacement == "random"
        ic_tags = icache._tags
        ic_offset_bits = icache._offset_bits
        ic_index_mask = icache._index_mask
        ic_index_bits = icache._index_bits
        ic_fill = icache.fill
        ic_accesses = ic_misses = 0
        dc_inline = dcache.config.replacement == "random"
        dc_tags = dcache._tags
        dc_offset_bits = dcache._offset_bits
        dc_index_mask = dcache._index_mask
        dc_index_bits = dcache._index_bits
        dc_fill = dcache.fill
        dc_accesses = dc_misses = 0

        timing = self.timing_tier
        tblocks_get = executor._tblocks.get
        timing_heat = self._timing_heat
        compile_timing = self._compile_timing

        retired_base = executor.retired
        cycle = self.cycle
        sw_cycles = 0
        hw_cycles = 0
        rocc_commands = 0
        instructions = 0
        timing_retired = 0
        arrived = False  # the step just retired redirected or issued a command
        try:
            while not htif.exited and not executor.exit_requested:
                if instructions >= limit:
                    raise SimulationError(
                        f"instruction limit exceeded ({limit}); pc={hart.pc:#x}"
                    )
                pc = hart.pc

                # Compiled timing tier: a span at this pc executes the whole
                # superblock (caches, stalls, penalties and architectural
                # effects) with the cycle count in a local.  The fuel gate
                # guarantees the instruction budget is never overshot, so
                # limit-hit behaviour is bit-identical to the interpreted
                # loop.  Spans contain no RoCC/CSR instructions, so every
                # span cycle is a software-part cycle.  Each retired
                # instruction was one I-cache access; the span returns its
                # I-cache misses and D-cache accesses and misses.
                if timing:
                    tb = tblocks_get(pc)
                    if tb is not None:
                        fn, min_fuel = tb
                        if limit - instructions >= min_fuel:
                            pc, new_cycle, k, im, da, dm = fn(
                                cycle, limit - instructions
                            )
                            sw_cycles += new_cycle - cycle
                            cycle = new_cycle
                            self.cycle = cycle
                            instructions += k
                            timing_retired += k
                            ic_accesses += k
                            ic_misses += im
                            dc_accesses += da
                            dc_misses += dm
                            hart.pc = pc
                            # Trace-tree link: a span exit without a
                            # compiled continuation is boosted so a
                            # recurring exit earns its own span after a
                            # second arrival.
                            if tblocks_get(pc) is None:
                                heat = timing_heat.get(pc, 0)
                                if heat >= 0:
                                    heat += EXIT_BOOST
                                    if heat >= PROMOTE_ARRIVALS:
                                        compile_timing(pc)
                                    else:
                                        timing_heat[pc] = heat
                            continue

                entry = timed_get(pc)
                if entry is None:
                    entry = timed_entry(pc)
                op, info, direct = entry
                decoded = info.decoded

                # Instruction fetch through the I-cache.
                if ic_inline:
                    ic_accesses += 1
                    line = pc >> ic_offset_bits
                    ways = ic_tags[line & ic_index_mask]
                    tag = line >> ic_index_bits
                    if tag in ways:
                        fetch_stall = 0
                    else:
                        ic_misses += 1
                        fetch_stall = ic_fill(ways, tag)
                else:
                    fetch_stall = icache_access(pc)

                # Source-operand stalls (load-use, multiplier shadow).
                operand_ready = ready[decoded.rs1]
                other_ready = ready[decoded.rs2]
                if other_ready > operand_ready:
                    operand_ready = other_ready
                issue_cycle = cycle + fetch_stall
                if operand_ready > issue_cycle:
                    issue_cycle = operand_ready
                cost = issue_cycle - cycle + 1  # one cycle to issue/retire

                # Architectural execution.  Direct ops need no dynamic
                # ExecInfo fields, so the fast closure (which returns the
                # next pc) is enough; the rest mutate `info` in place.
                if direct:
                    hart.pc = op()
                    timing_class = info.timing_class
                    hw_cost = 0
                    if timing_class == TC_MUL:
                        ready[decoded.rd] = cycle + cost + mul_latency - 1
                    elif timing_class == TC_DIV:
                        # The divider is iterative and blocks the pipeline.
                        cost += div_latency - 1
                    elif info.branch_taken:  # jal/jalr: always taken
                        cost += jump_penalty
                        arrived = timing
                else:
                    # Counter CSRs read executor.retired mid-instruction.
                    executor.retired = retired_base + instructions
                    op()
                    timing_class = info.timing_class
                    hw_cost = 0
                    if timing_class == TC_MEM:
                        address = info.mem_addr
                        if dc_inline:
                            dc_accesses += 1
                            line = address >> dc_offset_bits
                            ways = dc_tags[line & dc_index_mask]
                            tag = line >> dc_index_bits
                            if tag not in ways:
                                dc_misses += 1
                                cost += dc_fill(ways, tag)
                        else:
                            cost += dcache_access(
                                address, is_write=info.mem_is_store
                            )
                        if not info.mem_is_store:
                            ready[decoded.rd] = (
                                cycle + cost + load_use_latency - 1
                            )
                    elif timing_class == TC_ROCC:
                        # The command reaches the accelerator's issue queue
                        # after the issue stall + command latency, waits for
                        # a stage-0 slot, and the core resumes at completion
                        # + response latency when it blocks for data, when
                        # the slot frees (the initiation interval) otherwise.
                        # Every cycle from issue to resume counts against the
                        # hardware part.
                        complete, next_issue = rocc_issue(
                            cycle + cost + rocc_cmd_latency,
                            info.rocc_busy_cycles,
                        )
                        if info.rocc_has_response:
                            resume = complete + rocc_resp_latency
                            ready[decoded.rd] = resume
                        else:
                            resume = next_issue
                        hw_cost = resume - cycle
                        cost = 0
                        rocc_commands += 1
                        # Spans end before a command; the code after it
                        # starts one, so it does not stay interpreted.
                        arrived = timing
                    elif info.branch_taken:
                        cost += branch_penalty
                        arrived = timing

                cycle += cost + hw_cost
                self.cycle = cycle  # rdcycle must observe the live count
                sw_cycles += cost
                hw_cycles += hw_cost
                instructions += 1

                # Redirect targets and the pc after a RoCC command are where
                # timing spans start: count the arrival, compile once hot.
                if arrived:
                    arrived = False
                    target = hart.pc
                    if tblocks_get(target) is None:
                        heat = timing_heat.get(target, 0)
                        if heat >= 0:
                            heat += 1
                            if heat >= PROMOTE_ARRIVALS:
                                compile_timing(target)
                            else:
                                timing_heat[target] = heat
        finally:
            self.cycle = cycle
            self.sw_cycles += sw_cycles
            self.hw_cycles += hw_cycles
            self.rocc_commands += rocc_commands
            self.instructions_retired += instructions
            self.timing_compiled_instructions += timing_retired
            self.timing_interpreted_instructions += instructions - timing_retired
            executor.retired = retired_base + instructions
            ic_stats = icache.stats
            ic_stats.accesses += ic_accesses
            ic_stats.hits += ic_accesses - ic_misses
            ic_stats.misses += ic_misses
            dc_stats = dcache.stats
            dc_stats.accesses += dc_accesses
            dc_stats.hits += dc_accesses - dc_misses
            dc_stats.misses += dc_misses
        exit_code = htif.exit_code if htif.exited else executor.exit_code
        return RocketResult(
            exit_code=exit_code,
            instructions_retired=self.instructions_retired,
            console_output=htif.console_output,
            symbols=dict(self.image.symbols),
            memory=self.memory,
            hart=self.hart,
            cycles=self.cycle,
            sw_cycles=self.sw_cycles,
            hw_cycles=self.hw_cycles,
            icache_stats=self.icache.stats,
            dcache_stats=self.dcache.stats,
            rocc_commands=self.rocc_commands,
            accelerator=self.accelerator,
        )


def run_image_timed(image, accelerator=None, config=None, **kwargs) -> RocketResult:
    """Convenience one-shot cycle-accurate run of a linked image."""
    return RocketEmulator(image, accelerator=accelerator, config=config, **kwargs).run()
