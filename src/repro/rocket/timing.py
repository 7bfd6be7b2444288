"""Compiled timing tier: superblock cycle accounting for the Rocket model.

:meth:`repro.rocket.core.RocketEmulator.run` steps one instruction at a time
so that the pipeline model can charge fetch stalls, operand stalls and
redirect penalties per retired instruction.  Almost all of that arithmetic is
*static*: the timing class, the source registers, the cache line of the fetch
and the branch targets are all fixed by the instruction word, so a hot span
of code can be compiled — exactly like the functional tier-2 engine compiles
architectural state into Python locals — into one function that accumulates
``cycle`` in a local and touches shared state only at its exits.

A *timing span* starts at a redirect target or right after a RoCC command
(the interpreted loop counts arrivals at branch/jump destinations and at the
pc after each command) and follows fall-through execution, inlining
unconditional ``jal`` hops, until it reaches something that needs per-step
synchronized state:

* CSR reads (``rdcycle``/``rdinstret`` observe live counters),
* ``ecall``/``ebreak``/``fence.i`` (traps and code-visibility barriers),
* RoCC custom instructions (:class:`~repro.rocc.pipeline.AcceleratorPipeline`
  occupancy and the accelerator's architectural effects must stay bit-exact,
  so they stay interpreted),
* anything the emitter does not model (defensive: unknown mnemonics).

Conditional branches become guarded early exits; a backward branch (or
``jal``) to the span head closes a native ``while`` loop with a fuel check at
the back edge so the instruction budget is never overshot.  The generated
function's contract is::

    _tb(cycle, fuel) -> (next_pc, cycle', retired)

with ``retired <= fuel`` guaranteed by construction (the caller only enters
with ``fuel >= min_fuel``, and back edges re-check).

Exactness is the whole point — cycle counts feed Table IV/VI, so every probe
and stall below reproduces the interpreted loop bit for bit:

* I-cache probes are batched per run of consecutive fetches from one cache
  line: the first fetch probes (and on a miss allocates, drawing from the
  cache's PRNG exactly like ``Cache.access``), the rest are guaranteed hits
  because nothing else touches the I-cache in between.  Hit/miss/access
  counters are settled at span exit from the retire count.
* D-cache probes are emitted inline per memory instruction, PRNG draws
  included.
* Operand stalls (``max(cycle, ready[rs1], ready[rs2])``) are *elided* where
  a register provably became ready: a register is only "not ready" within
  ``load_use``/``mul`` latency of its producer, so once enough instructions
  (each >= 1 cycle) have passed, the check folds away and pure-ALU runs
  collapse to a single constant ``cycle += k``.  At span entry a
  ``max(load_use, mul)``-instruction window is checked conservatively.
* Stores re-check the executor's compiled code bounds (self-modifying code
  drops every compiled artifact — a *deopt* — and the span exits so the
  interpreter regains control) and the HTIF exit flag.

Only the random-replacement cache policy is compiled (it is Rocket's policy
and the paper's measurement); LRU configurations keep the interpreted loop.
"""

from __future__ import annotations

from repro.errors import DecodingError, SimulationError
from repro.isa.semantics import (
    ALU,
    BRANCHES,
    HELPERS,
    LOADS,
    MASK64,
    STORES,
    TC_DIV,
    TC_MUL,
    TC_OTHER,
    signed,
)

#: Redirect arrivals at a pc before a timing span is compiled there.  Spans
#: cost a fraction of a millisecond to build; anything arriving 16 times is
#: either a loop head or per-sample code that will arrive hundreds more.
PROMOTE_ARRIVALS = 16

#: Heat added when a compiled span *exits* to an uncompiled pc — the timing
#: tier's trace-tree link.  Half the threshold (rounded up), so a recurring
#: continuation compiles on its second arrival instead of its sixteenth.
EXIT_BOOST = (PROMOTE_ARRIVALS + 1) >> 1

#: Heat sentinel for pcs that must never be compiled (stoppers, spans too
#: short to pay for the call).  Far below zero so arrival increments can
#: never creep it back over the threshold.
INELIGIBLE = -(1 << 60)

#: Span length cap: bounds compile time and keeps the emitted function well
#: inside CPython's literal/locals sweet spot.
MAX_SPAN = 256

#: Straight-line spans shorter than this stay interpreted — the call and
#: tuple overhead would eat the win.  Loops always compile.
MIN_SPAN = 2

#: Everything the emitter below can fold.  Any other mnemonic (CSRs, ecall,
#: ebreak, fence.i, rocc, future extensions) ends the walk *before* being
#: included and stays interpreted.
_KNOWN = frozenset(ALU).union(
    LOADS, STORES, BRANCHES, {"jal", "jalr", "fence"}
)


# ----------------------------------------------------------------------- walk
def _walk(executor, head):
    """Trace fall-through execution from ``head``.

    Returns ``(items, tail)`` where ``items`` is a list of
    ``(pc, decoded, kind)`` and ``tail`` describes how the span ends:

    ``("fall", pc)``     span falls through to ``pc`` (stopper / cap / rejoin)
    ``("jalexit", pc)``  last item is a ``jal`` whose target was already
                         traced — exit to the target instead of re-inlining
    ``("jalr",)``        last item is an indirect jump (dynamic exit)
    ``("loop",)``        last item closes a native loop back to ``head``
    """
    items = []
    visited = set()
    p = head
    while True:
        if len(items) >= MAX_SPAN or p in visited:
            return items, ("fall", p)
        try:
            d = executor.fetch_decode(p)
        except (DecodingError, SimulationError):
            return items, ("fall", p)
        m = d.mnemonic
        if m not in _KNOWN:
            return items, ("fall", p)
        if m in BRANCHES:
            taken = (p + d.imm) & MASK64
            if taken == head and items:
                items.append((p, d, "loopbr"))
                return items, ("loop",)
            items.append((p, d, "br"))
        elif m == "jal":
            target = (p + d.imm) & MASK64
            if target == head and items:
                items.append((p, d, "loopjal"))
                return items, ("loop",)
            items.append((p, d, "jal"))
            if target == p or target in visited:
                return items, ("jalexit", target)
            visited.add(p)
            p = target
            continue
        elif m == "jalr":
            items.append((p, d, "jalr"))
            return items, ("jalr",)
        elif m in LOADS:
            items.append((p, d, "load"))
        elif m in STORES:
            items.append((p, d, "store"))
        else:
            items.append((p, d, "alu"))
        visited.add(p)
        p += 4


# ----------------------------------------------------------------- arch lines
def _render(pc, d, template):
    """A semantics-table template over the register file ``R``."""
    a = f"R[{d.rs1}]"
    b = f"R[{d.rs2}]"
    return template.format_map({
        "a": a,
        "b": b,
        "sa": signed(a),
        "sb": signed(b),
        "imm": d.imm,
        "uimm": d.imm & MASK64,
        "pcimm": (pc + d.imm) & MASK64,
    })


def _timing_class(d):
    op = ALU.get(d.mnemonic)
    return TC_OTHER if op is None else op.timing_class  # fence: TC_OTHER


# ----------------------------------------------------------------- compile
def compile_timing_span(emulator, head):
    """Compile the timing span at ``head``; ``(fn, min_fuel, source)`` or None.

    ``None`` means the pc is permanently ineligible (it starts at a stopper
    or the span is too short to pay for the call) — the caller records that
    so the arrival counter stops being maintained for it.
    """
    executor = emulator.executor
    items, tail = _walk(executor, head)
    loop = tail[0] == "loop"
    if not items or (not loop and len(items) < MIN_SPAN):
        return None

    config = emulator.config
    icache = emulator.icache
    dcache = emulator.dcache
    load_use = config.load_use_latency_cycles
    mul_lat = config.mul_latency_cycles
    div_lat = config.div_latency_cycles
    jump_pen = config.jump_penalty_cycles
    branch_pen = config.branch_penalty_cycles
    ic_pen = icache.config.miss_penalty_cycles
    dc_pen = dcache.config.miss_penalty_cycles
    ic_offset = icache._offset_bits
    ic_imask = icache._index_mask
    ic_ibits = icache._index_bits
    ic_ways = icache.config.ways
    dc_offset = dcache._offset_bits
    dc_imask = dcache._index_mask
    dc_ibits = dcache._index_bits
    dc_ways = dcache.config.ways

    n_items = len(items)
    has_mem = any(kind in ("load", "store") for _, _, kind in items)
    body = 2 if loop else 1

    # Operand-stall elision bookkeeping.  A register is possibly not-ready
    # only within its producer's latency window; each retired instruction
    # advances `cycle` by at least one, so `window - 1` positions after the
    # producer the check is provably redundant.  At span entry every
    # register gets the conservative max window.
    window = max(load_use, mul_lat) - 1
    safe_after = {}
    loadmul = set()
    if loop:
        for _, d, kind in items:
            if kind == "load" or _timing_class(d) == TC_MUL:
                loadmul.add(d.rd)
    # A loop iteration shorter than the entry window cannot prove entry-time
    # ready values stale by position alone — check every operand then.
    loop_always = loop and n_items < window

    def needs_check(reg, pos):
        if loop:
            return loop_always or reg in loadmul or pos <= window
        return pos <= safe_after.get(reg, window)

    def note_setter(reg, pos, latency):
        if not loop:
            until = pos + latency - 1
            if until > safe_after.get(reg, window):
                safe_after[reg] = until

    lines = []

    def emit(text, level):
        lines.append("    " * level + text)

    namespace = {
        "R": emulator.hart.regs,
        "Y": emulator._reg_ready,
        "rd_": emulator.memory.read,
        "wr_": emulator.memory.write,
        "CB": executor._code_bounds,
        "E": executor,
        "EM": emulator,
        "HT": emulator.htif,
        "IS": icache.stats,
        "DS": dcache.stats,
        "IR": icache.rng.randrange,
        "DR": dcache.rng.randrange,
        "DT": dcache._tags,
        **HELPERS,
    }

    emit("def _tb(cycle, fuel):", 0)
    if loop:
        emit("n = 0", 1)
    emit("im = 0", 1)
    if has_mem:
        emit("da = 0", 1)
        emit("dm = 0", 1)
    if loop:
        emit("while 1:", 1)

    # Pending constant cycle increments from instructions that needed no
    # stall check — folded into one `cycle += k` at the next flush point.
    acc = 0

    def flush_acc():
        nonlocal acc
        if acc:
            emit(f"cycle += {acc}", body)
            acc = 0

    def k_expr(pos):
        return f"n + {pos}" if loop else f"{pos}"

    def emit_exit(pc_expr, retire_expr, level):
        emit(f"k = {retire_expr}", level)
        emit("IS.accesses += k", level)
        emit("IS.misses += im", level)
        emit("IS.hits += k - im", level)
        if has_mem:
            emit("DS.accesses += da", level)
            emit("DS.misses += dm", level)
            emit("DS.hits += da - dm", level)
        emit(f"return ({pc_expr}, cycle, k)", level)

    def emit_cost(pos, srcs, k, need_cycle):
        """Charge `max(cycle, ready...) + k` with redundant checks elided.

        Returns with `cycle` current when ``need_cycle`` (flushing the
        pending constant), otherwise may leave ``k`` pending in ``acc``.
        """
        nonlocal acc
        checked = sorted({r for r in srcs if needs_check(r, pos)})
        if checked:
            flush_acc()
            terms = ", ".join(f"Y[{r}]" for r in checked)
            emit(f"cycle = max(cycle, {terms}) + {k}", body)
        else:
            acc += k
            if need_cycle:
                flush_acc()

    def emit_dcache_probe():
        emit("da += 1", body)
        emit(f"ln = ad >> {dc_offset}", body)
        emit(f"dw = DT[ln & {dc_imask}]", body)
        emit(f"dt = ln >> {dc_ibits}", body)
        emit("if dt not in dw:", body)
        emit("dm += 1", body + 1)
        emit("try:", body + 1)
        emit("v = dw.index(None)", body + 2)
        emit("except ValueError:", body + 1)
        emit(f"v = DR({dc_ways})", body + 2)
        emit("dw[v] = dt", body + 1)
        emit(f"cycle += {dc_pen}", body + 1)

    prev_line = None
    for pos, (p, d, kind) in enumerate(items, 1):
        # Fetch: probe once per run of consecutive fetches from one cache
        # line — the rest are guaranteed hits (nothing else touches the
        # I-cache mid-run; accesses are settled from the retire count).
        line_addr = p >> ic_offset
        if line_addr != prev_line:
            flush_acc()
            index = line_addr & ic_imask
            tag = line_addr >> ic_ibits
            ways_name = f"IW{index}"
            namespace[ways_name] = icache._tags[index]
            emit(f"if {tag} not in {ways_name}:", body)
            emit("im += 1", body + 1)
            emit("try:", body + 1)
            emit(f"v = {ways_name}.index(None)", body + 2)
            emit("except ValueError:", body + 1)
            emit(f"v = IR({ic_ways})", body + 2)
            emit(f"{ways_name}[v] = {tag}", body + 1)
            emit(f"cycle += {ic_pen}", body + 1)
        prev_line = line_addr

        m = d.mnemonic
        srcs = (d.rs1, d.rs2)
        if kind == "alu":
            timing_class = _timing_class(d)
            if timing_class == TC_MUL:
                # The ready write needs the live cycle.
                emit_cost(pos, srcs, 1, True)
            elif timing_class == TC_DIV:
                # The iterative divider blocks the pipeline: a flat cost,
                # no ready shadow — foldable into the pending constant.
                emit_cost(pos, srcs, div_lat, False)
            else:
                emit_cost(pos, srcs, 1, False)
            if m in ALU and d.rd:
                emit(f"R[{d.rd}] = {_render(p, d, ALU[m].template)}", body)
            if timing_class == TC_MUL:
                emit(f"Y[{d.rd}] = cycle + {mul_lat - 1}", body)
                note_setter(d.rd, pos, mul_lat)
        elif kind == "load":
            emit_cost(pos, srcs, 1, True)
            emit(f"ad = (R[{d.rs1}] + {d.imm}) & 0xFFFFFFFFFFFFFFFF", body)
            load = LOADS[m]
            access = f"rd_(ad, {load.size})"
            if d.rd:
                emit(f"R[{d.rd}] = {load.extend(access)}", body)
            else:
                # x0 loads still access memory (and the D-cache).
                emit(access, body)
            emit_dcache_probe()
            emit(f"Y[{d.rd}] = cycle + {load_use - 1}", body)
            note_setter(d.rd, pos, load_use)
        elif kind == "store":
            size = STORES[m]
            emit_cost(pos, srcs, 1, True)
            emit(f"ad = (R[{d.rs1}] + {d.imm}) & 0xFFFFFFFFFFFFFFFF", body)
            emit(f"wr_(ad, {size}, R[{d.rs2}])", body)
            emit_dcache_probe()
            # Self-modifying store: every compiled artifact (this span
            # included) is dropped — deopt back to the interpreter at the
            # next pc with the cycle count settled exactly.
            emit(f"if ad < CB[1] and ad + {size} > CB[0]:", body)
            emit(f"E._invalidate(ad, {size})", body + 1)
            emit("EM.timing_deopts += 1", body + 1)
            emit_exit(f"{p + 4}", k_expr(pos), body + 1)
            emit("if HT.exited:", body)
            emit_exit(f"{p + 4}", k_expr(pos), body + 1)
        elif kind == "br":
            taken = (p + d.imm) & MASK64
            emit_cost(pos, srcs, 1, True)
            emit(f"if {_render(p, d, BRANCHES[m].template)}:", body)
            emit(f"cycle += {branch_pen}", body + 1)
            emit_exit(f"{taken}", k_expr(pos), body + 1)
        elif kind == "loopbr":
            emit_cost(pos, srcs, 1, True)
            emit(f"if {_render(p, d, BRANCHES[m].template)}:", body)
            emit(f"cycle += {branch_pen}", body + 1)
            emit(f"n += {n_items}", body + 1)
            emit(f"if fuel - n < {n_items}:", body + 1)
            emit_exit(f"{head}", "n", body + 2)
            emit("else:", body)
            emit("break", body + 1)
        elif kind == "jal":
            emit_cost(pos, srcs, 1 + jump_pen, False)
            if d.rd:
                emit(f"R[{d.rd}] = {p + 4}", body)
        elif kind == "loopjal":
            emit_cost(pos, srcs, 1 + jump_pen, True)
            if d.rd:
                emit(f"R[{d.rd}] = {p + 4}", body)
            emit(f"n += {n_items}", body)
            emit(f"if fuel - n < {n_items}:", body)
            emit_exit(f"{head}", "n", body + 1)
        else:  # jalr
            emit_cost(pos, srcs, 1 + jump_pen, True)
            emit(f"t = (R[{d.rs1}] + {d.imm}) & {MASK64 & ~1}", body)
            if d.rd:
                emit(f"R[{d.rd}] = {p + 4}", body)
            emit_exit("t", k_expr(pos), body)

    if tail[0] in ("fall", "jalexit"):
        flush_acc()
        emit_exit(f"{tail[1]}", k_expr(n_items), body)
    elif loop and items[-1][2] == "loopbr":
        # Natural loop exit: the bottom branch fell through.
        fall_pc = items[-1][0] + 4
        emit_exit(f"{fall_pc}", f"n + {n_items}", 1)
    # ("jalr",) and loopjal spans emitted their own returns.

    source = "\n".join(lines) + "\n"
    code = compile(source, f"<tspan@{head:#x}>", "exec")
    exec(code, namespace)

    # Compiled spans embed decoded semantics for every covered pc — stores
    # into the span must invalidate, so the covered range joins the
    # executor's code bounds exactly like tier-1/2 promotion does.
    lo = min(p for p, _, _ in items)
    hi = max(p for p, _, _ in items) + 4
    bounds = executor._code_bounds
    if lo < bounds[0]:
        bounds[0] = lo
    if hi > bounds[1]:
        bounds[1] = hi

    return namespace["_tb"], n_items, source
