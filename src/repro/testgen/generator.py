"""Build a runnable RISC-V test program from a configuration + operand vectors.

The generated program contains (Fig. 2's "Test Program" box):

* the DPD/BCD/power-of-ten lookup tables,
* the encoded operand pairs and buffers for results and per-sample cycles,
* a measurement harness that brackets every multiplication with ``RDCYCLE``
  (the paper's measurement primitive) and accumulates a total,
* the selected kernel (software baseline, Method-1, or Method-1 with dummy
  functions).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from functools import partial

from repro.asm.builder import AsmBuilder
from repro.asm.program import TOHOST_ADDRESS
from repro.decnumber.operations import get_operation
from repro.errors import ConfigurationError
from repro.kernels.addsub_fma import emit_addsub_kernel, emit_fma_kernel
from repro.kernels.method1 import emit_mul_kernel
from repro.kernels.tables import emit_tables
from repro.kernels.wide_method1 import emit_wide_mul_kernel
from repro.testgen.config import SolutionKind, TestProgramConfig
from repro.verification.database import VerificationDatabase
from repro.verification.reference import GoldenReference

#: Data-section symbols of the generated harness.
HARNESS_SYMBOLS = {
    "operands": "operands",
    "results": "results",
    "cycle_samples": "cycle_samples",
    "total_cycles": "total_cycles",
    "num_samples": "num_samples",
}

#: Solution kind -> kernel label suffix (``dec64_mul_sw``, ``dec128_fma_m1``).
_SOLUTION_SUFFIXES = {
    SolutionKind.SOFTWARE: "sw",
    SolutionKind.METHOD1: "m1",
    SolutionKind.METHOD1_DUMMY: "m1d",
}


def kernel_label(fmt: str, operation: str, solution: str) -> str:
    """Kernel entry label for (format, operation, solution).

    One shared naming scheme across all kernel emitters:
    ``dec{64,128}_{mul,add,sub,fma}_{sw,m1,m1d}``.  The decimal64 multiply
    labels are the paper's hand-tuned single-word emitters; everything else
    is spec-driven.
    """
    from repro.decnumber.formats import get_format

    bits = get_format(fmt).total_bits
    mnemonic = get_operation(operation).mnemonic
    return f"dec{bits}_{mnemonic}_{_SOLUTION_SUFFIXES[solution]}"


@dataclass
class GeneratedProgram:
    """A linked test program plus everything needed to interpret its output."""

    image: object
    config: TestProgramConfig
    vectors: list
    kernel_label: str
    operand_words: list = field(default_factory=list)

    @property
    def num_samples(self) -> int:
        return len(self.vectors)

    @property
    def words_per_value(self) -> int:
        """64-bit memory words per encoded operand/result."""
        return self.config.format_spec.words_per_value

    def read_results(self, result) -> list:
        """Per-sample result words from a finished simulation.

        Multi-word formats store results least-significant word first; each
        entry of the returned list is the full encoded integer.
        """
        words = self.words_per_value
        raw = result.read_dwords(
            HARNESS_SYMBOLS["results"], self.num_samples * words
        )
        if words == 1:
            return raw
        return [
            sum(raw[base + i] << (64 * i) for i in range(words))
            for base in range(0, len(raw), words)
        ]

    def read_cycle_samples(self, result) -> list:
        """Per-sample cycle counts (RDCYCLE deltas) from a finished simulation."""
        return result.read_dwords(HARNESS_SYMBOLS["cycle_samples"], self.num_samples)

    def read_total_cycles(self, result) -> int:
        return result.read_dword(HARNESS_SYMBOLS["total_cycles"])

    # ------------------------------------------------------- batch re-binding
    def encode_operands(self, vectors) -> tuple:
        """:func:`encode_operands` for ``vectors`` under this program's
        configuration."""
        return encode_operands(self.config, vectors)

    def rebind(self, vectors) -> "GeneratedProgram":
        """This program over a new same-shape vector set, without re-linking.

        Returns a new :class:`GeneratedProgram` whose image shares the text
        segment, symbol table and layout of this one; only the operand words
        in the data segment are replaced.  Byte-for-byte identical to
        re-running the full generate/assemble/link pipeline over the new
        vectors — that is the invariant batch mode rests on — and rejects
        the same vector sets :func:`build_test_program` rejects.
        """
        vectors = list(vectors)
        if len(vectors) != self.num_samples:
            raise ConfigurationError(
                f"rebind vector count {len(vectors)} != program num_samples "
                f"{self.num_samples}"
            )
        operand_words, blob = self.encode_operands(vectors)
        address = self.image.symbol(HARNESS_SYMBOLS["operands"])
        segments = dict(self.image.segments)
        for name, (base, data) in segments.items():
            offset = address - base
            if 0 <= offset and offset + len(blob) <= len(data):
                segments[name] = (
                    base, data[:offset] + blob + data[offset + len(blob):]
                )
                image = type(self.image)(
                    segments=segments,
                    symbols=self.image.symbols,
                    entry=self.image.entry,
                )
                return replace(
                    self, image=image, vectors=vectors,
                    operand_words=operand_words,
                )
        raise ConfigurationError("operand region not found in any image segment")

    def scratch_span(self) -> tuple:
        """``(address, size)`` of the result buffers a warm rerun must zero.

        Covers the contiguous ``results`` / ``cycle_samples`` /
        ``total_cycles`` region (``num_samples`` stays — it is layout, not
        output).
        """
        start = self.image.symbol(HARNESS_SYMBOLS["results"])
        stop = self.image.symbol(HARNESS_SYMBOLS["total_cycles"]) + 8
        return start, stop - start


_ADD = partial(emit_addsub_kernel, mnemonic="add")
_SUBTRACT = partial(emit_addsub_kernel, mnemonic="sub")

#: (operation, words per value) -> kernel emitter; every emitter takes
#: ``(builder, spec, label, solution)``.
_KERNEL_EMITTERS = {
    ("multiply", 1): emit_mul_kernel,
    ("multiply", 2): emit_wide_mul_kernel,
    ("add", 1): _ADD,
    ("add", 2): _ADD,
    ("subtract", 1): _SUBTRACT,
    ("subtract", 2): _SUBTRACT,
    ("fma", 1): emit_fma_kernel,
    ("fma", 2): emit_fma_kernel,
}


def _emit_kernel(builder: AsmBuilder, config: TestProgramConfig,
                 label: str) -> str:
    spec = config.format_spec
    emit = _KERNEL_EMITTERS[(config.operation, spec.words_per_value)]
    return emit(builder, spec, label, config.solution)


def encode_operands(config: TestProgramConfig, vectors) -> tuple:
    """``(operand_words, blob)``: ``vectors`` encoded for ``config``.

    ``blob`` is the program's operand region, each value least-significant
    word first; :func:`build_test_program` emits it and
    :meth:`GeneratedProgram.rebind` patches it in, so a rebound image is
    byte-identical to a cold build.  Raises :class:`ConfigurationError`
    naming the first vector whose operand count is not the operation's
    arity.
    """
    reference = GoldenReference(operation=config.operation,
                                precision=config.precision)
    arity = get_operation(config.operation).arity
    words_per_value = config.format_spec.words_per_value
    mask64 = (1 << 64) - 1
    operand_words = []
    blob = bytearray()
    for vector in vectors:
        if len(vector.operands) != arity:
            raise ConfigurationError(
                f"vector {vector.index} carries {len(vector.operands)} "
                f"operands but operation {config.operation!r} takes {arity}"
            )
        words = tuple(
            reference.encode_operand(operand) for operand in vector.operands
        )
        operand_words.append(words)
        for value in words:
            for i in range(words_per_value):
                blob += struct.pack("<Q", (value >> (64 * i)) & mask64)
    return operand_words, bytes(blob)


def _emit_harness(builder: AsmBuilder, kernel_label: str, num_samples: int,
                  repetitions: int, words_per_value: int = 1,
                  arity: int = 2) -> None:
    b = builder
    operand_stride = 8 * arity * words_per_value
    result_stride = 8 * words_per_value
    b.text()
    b.label("_start")
    b.la("s0", HARNESS_SYMBOLS["operands"])
    b.la("s1", HARNESS_SYMBOLS["results"])
    b.la("s2", HARNESS_SYMBOLS["cycle_samples"])
    b.li("s3", num_samples)
    b.li("s4", 0)          # sample index
    b.li("s5", 0)          # total cycles
    b.beqz("s3", "harness_done")
    b.label("harness_loop")
    if words_per_value == 1:
        b.emit("ld", "s8", "s0", 0)   # X
        b.emit("ld", "s9", "s0", 8)   # Y
        if arity == 3:
            b.emit("ld", "s10", "s0", 16)  # Z
            b.li("s11", repetitions)
        else:
            b.li("s10", repetitions)
    else:
        b.emit("ld", "s8", "s0", 0)    # X low
        b.emit("ld", "s9", "s0", 8)    # X high
        b.emit("ld", "s10", "s0", 16)  # Y low
        b.emit("ld", "s11", "s0", 24)  # Y high
        # All of s0-s11 carry live harness state for two-word operands, so
        # the repetition count lives in gp (never touched by the kernels).
        # A two-word third operand has no callee-saved home left at all:
        # it is reloaded from the operand stream (s0 survives the call)
        # inside the repeat loop.
        b.li("gp", repetitions)
    b.rdcycle("s6")
    b.label("harness_repeat")
    if words_per_value == 1:
        b.mv("a0", "s8")
        b.mv("a1", "s9")
        if arity == 3:
            b.mv("a2", "s10")
            b.call(kernel_label)
            b.emit("addi", "s11", "s11", -1)
            b.bnez("s11", "harness_repeat")
        else:
            b.call(kernel_label)
            b.emit("addi", "s10", "s10", -1)
            b.bnez("s10", "harness_repeat")
    else:
        b.mv("a0", "s8")
        b.mv("a1", "s9")
        b.mv("a2", "s10")
        b.mv("a3", "s11")
        if arity == 3:
            b.emit("ld", "a4", "s0", 32)  # Z low
            b.emit("ld", "a5", "s0", 40)  # Z high
        b.call(kernel_label)
        b.emit("addi", "gp", "gp", -1)
        b.bnez("gp", "harness_repeat")
    b.rdcycle("s7")
    b.emit("sub", "s7", "s7", "s6")
    b.emit("sd", "a0", "s1", 0)
    if words_per_value > 1:
        b.emit("sd", "a1", "s1", 8)
    b.emit("sd", "s7", "s2", 0)
    b.emit("add", "s5", "s5", "s7")
    b.emit("addi", "s0", "s0", operand_stride)
    b.emit("addi", "s1", "s1", result_stride)
    b.emit("addi", "s2", "s2", 8)
    b.emit("addi", "s4", "s4", 1)
    b.branch("bne", "s4", "s3", "harness_loop")
    b.label("harness_done")
    b.la("t0", HARNESS_SYMBOLS["total_cycles"])
    b.emit("sd", "s5", "t0", 0)
    b.li("t1", TOHOST_ADDRESS)
    b.li("t2", 1)
    b.emit("sd", "t2", "t1", 0)
    b.label("harness_spin")
    b.j("harness_spin")


def draw_vectors(
    num_samples: int,
    seed: int,
    operand_classes=None,
    workload: str = None,
    database: VerificationDatabase = None,
    fmt: str = "decimal64",
    operation: str = "multiply",
) -> list:
    """The one vector-source branch every evaluation layer shares.

    The workload registry is the preferred source: any registered scenario
    (see docs/workloads.md) can be named by ``workload``.  Without a
    workload the legacy class-mix database path is used — and the
    ``paper-uniform`` workload reproduces that path bit for bit.
    ``EvaluationFramework``, ``CampaignCell`` and :func:`generate_vectors`
    all delegate here so the serial and sharded paths cannot drift apart.

    ``fmt`` selects the interchange format the vectors are sized for; the
    workload path checks the workload's declared format support first
    (see :attr:`repro.workloads.Workload.formats`).
    """
    if workload is not None:
        from repro.workloads import get_workload, workload_vectors

        return workload_vectors(
            get_workload(workload), num_samples, seed, fmt, operation
        )
    if database is None:
        database = VerificationDatabase(seed, fmt=fmt)
    if operand_classes is None:
        return database.generate_mix(num_samples, operation=operation)
    return database.generate_mix(num_samples, operand_classes, operation=operation)


def generate_vectors(config: TestProgramConfig,
                     database: VerificationDatabase = None) -> list:
    """The operand vectors a configuration implies (see :func:`draw_vectors`)."""
    return draw_vectors(
        config.num_samples,
        config.seed,
        operand_classes=config.operand_classes,
        workload=config.workload,
        database=database,
        fmt=config.fmt,
        operation=config.operation,
    )


def build_test_program(
    config: TestProgramConfig,
    vectors=None,
    database: VerificationDatabase = None,
) -> GeneratedProgram:
    """Generate, assemble and link one test program.

    ``vectors`` may be provided explicitly (e.g. to run the same operands
    through several solutions); otherwise they are drawn from the registered
    workload named by ``config.workload`` if set, else from ``database``
    (or a fresh one seeded from the configuration).
    """
    if vectors is None:
        vectors = generate_vectors(config, database=database)
    if len(vectors) != config.num_samples:
        raise ConfigurationError(
            f"vector count {len(vectors)} != configured num_samples {config.num_samples}"
        )

    operand_words, blob = encode_operands(config, vectors)
    builder = AsmBuilder()
    words_per_value = config.format_spec.words_per_value

    # Data: lookup tables, operands, result/cycle buffers.
    emit_tables(builder)
    builder.data()
    builder.align(8)
    builder.label(HARNESS_SYMBOLS["operands"])
    builder.current_section.append_bytes(blob)
    builder.label(HARNESS_SYMBOLS["results"])
    builder.space(8 * len(vectors) * words_per_value)
    builder.label(HARNESS_SYMBOLS["cycle_samples"])
    builder.space(8 * len(vectors))
    builder.label(HARNESS_SYMBOLS["total_cycles"])
    builder.dword(0)
    builder.label(HARNESS_SYMBOLS["num_samples"])
    builder.dword(len(vectors))

    # Text: harness first (entry point), then the kernel.
    label = kernel_label(config.fmt, config.operation, config.solution)
    _emit_harness(builder, label, len(vectors), config.repetitions,
                  words_per_value=words_per_value,
                  arity=get_operation(config.operation).arity)
    _emit_kernel(builder, config, label)

    image = builder.link(entry_symbol="_start")
    return GeneratedProgram(
        image=image,
        config=config,
        vectors=list(vectors),
        kernel_label=label,
        operand_words=operand_words,
    )
