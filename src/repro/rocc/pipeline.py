"""Staged pipeline timing model of the accelerator datapath.

The paper's accelerator is a single blocking design point: the interface FSM
(Fig. 5) accepts one command, occupies its function state for the datapath's
busy cycles and only then returns to ``Idle``, so back-to-back RoCC commands
serialise completely.  This module generalises that into a *staged* datapath
behind an issue queue, which is what the design-space study of
docs/pipeline.md sweeps:

* a command's busy cycles are split into ``min(depth, busy)`` balanced
  segments (:func:`split_busy_cycles`) -- the stage occupancies of a
  ``depth``-deep pipeline;
* stage 0 has ``width`` issue slots; a command is *accepted* when it arrives
  AND a slot is free, occupies its slot for the first segment (the pipeline's
  initiation interval), then drains through the remaining stages while the
  next command enters behind it;
* a command *completes* (its architectural effects retire) ``busy`` cycles
  after acceptance -- segment times sum exactly to the blocking datapath's
  busy cycles, so the work done is conserved at every depth.

The Rocket core holds a command that carries ``xd`` until completion plus the
response latency, and releases one without ``xd`` as soon as its issue slot
frees, which is where deeper pipelines overlap back-to-back RoCC traffic.

Timing-only model: functional execution stays in program order inside
:class:`~repro.rocc.decimal_accel.DecimalAccelerator` (the hardware analogue
is full forwarding between in-flight commands), and at ``depth=1, width=1``
a command completes and frees its slot at the same cycle, which is the
blocking FSM's timing bit for bit -- ``tests/golden/pipeline_blocking.json``
pins it.
"""

from __future__ import annotations

from repro.errors import AcceleratorError


def split_busy_cycles(busy_cycles: int, depth: int) -> tuple:
    """Balanced stage segments of a command's busy cycles.

    Returns ``min(depth, busy_cycles)`` positive segments summing exactly to
    ``busy_cycles``, longest first (so segment 0 -- the initiation interval --
    is ``ceil(busy / n)``).  ``depth=1`` returns ``(busy_cycles,)``: the
    blocking datapath.
    """
    if busy_cycles < 1:
        raise AcceleratorError(f"busy cycles must be positive: {busy_cycles}")
    if depth < 1:
        raise AcceleratorError(f"pipeline depth must be positive: {depth}")
    stages = min(depth, busy_cycles)
    base, extra = divmod(busy_cycles, stages)
    return (base + 1,) * extra + (base,) * (stages - extra)


class AcceleratorPipeline:
    """Issue-slot occupancy of the staged datapath.

    The Rocket timing model calls :meth:`issue` once per RoCC command.  The
    pipeline holds no architectural state, so resetting it (or the owning
    accelerator) is safe between warm :class:`~repro.sim.batch.BatchRunner`
    runs.
    """

    def __init__(self, depth: int = 1, width: int = 1) -> None:
        if depth < 1:
            raise AcceleratorError(f"pipeline depth must be positive: {depth}")
        if width < 1:
            raise AcceleratorError(f"issue width must be positive: {width}")
        self.depth = depth
        self.width = width
        # Cycle at which each stage-0 issue slot frees.
        self._slot_free = [0] * width

    def issue(self, arrival: int, busy_cycles: int) -> tuple:
        """Accept one command; return its ``(complete, next_issue)`` cycles.

        The command is accepted at ``max(arrival, earliest free slot)``,
        completes ``busy_cycles`` later and frees its slot after segment 0
        of :func:`split_busy_cycles` (the initiation interval).
        """
        depth = self.depth
        if busy_cycles < 1 or depth < 1:
            split_busy_cycles(busy_cycles, depth)  # raises AcceleratorError
        # Segment 0 is ceil(busy / stages); computed without the tuple.
        stages = depth if depth < busy_cycles else busy_cycles
        slot_free = self._slot_free
        free = min(slot_free)
        accept = arrival if arrival >= free else free
        next_issue = accept - (-busy_cycles // stages)
        slot_free[slot_free.index(free)] = next_issue
        return accept + busy_cycles, next_issue

    def reset(self) -> None:
        self._slot_free = [0] * self.width
