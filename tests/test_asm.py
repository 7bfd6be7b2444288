"""Tests for the assembler layer: builder, linker, macros."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm.builder import AsmBuilder
from repro.asm.linker import Linker, dump_disassembly
from repro.asm.macros import make_macro, standard_macros, table_iii_rows
from repro.asm.program import DEFAULT_DATA_BASE, DEFAULT_TEXT_BASE, Program, Section
from repro.errors import AssemblerError, LinkError
from repro.isa.decoder import decode_instruction


def _link_and_read_text(builder):
    image = builder.link()
    base, data = image.segments[".text"]
    words = [int.from_bytes(data[i:i + 4], "little") for i in range(0, len(data), 4)]
    return image, base, words


class TestBuilder:
    def test_emit_and_label_addresses(self):
        b = AsmBuilder()
        b.text()
        b.label("_start")
        b.emit("addi", "a0", "zero", 1)
        b.label("second")
        b.nop()
        image, base, words = _link_and_read_text(b)
        assert image.symbol("_start") == base
        assert image.symbol("second") == base + 4
        assert decode_instruction(words[0]).mnemonic == "addi"

    def test_branch_fixups_forward_and_backward(self):
        b = AsmBuilder()
        b.label("top")
        b.nop()
        b.branch("bne", "a0", "a1", "bottom")
        b.branch("beq", "a0", "a1", "top")
        b.label("bottom")
        b.nop()
        _image, _base, words = _link_and_read_text(b)
        forward = decode_instruction(words[1])
        backward = decode_instruction(words[2])
        assert forward.imm == 8        # two instructions ahead
        assert backward.imm == -8      # two instructions back

    def test_la_materialises_data_address(self):
        b = AsmBuilder()
        b.data()
        b.label("value")
        b.dword(0xDEAD)
        b.text()
        b.label("_start")
        b.la("a0", "value")
        image, _base, words = _link_and_read_text(b)
        lui = decode_instruction(words[0])
        addi = decode_instruction(words[1])
        materialised = (lui.imm + addi.imm) & 0xFFFFFFFF
        assert materialised == image.symbol("value")

    @pytest.mark.parametrize("value", [
        0, 1, -1, 2047, -2048, 2048, 0x7FFFFFFF, -0x80000000,
        0x123456789ABCDEF0, 0xFFFFFFFFFFFFFFFF, 1 << 63, 10**16 - 1,
    ])
    def test_li_sequences_are_bounded(self, value):
        b = AsmBuilder()
        b.li("a0", value)
        assert len(b.current_section) <= 8 * 4  # at most 8 instructions

    def test_rocc_emission(self):
        b = AsmBuilder()
        b.rocc("DEC_ADD", rd="a2", rs1="a1", rs2="a0", xd=True, xs1=True, xs2=True)
        _image, _base, words = _link_and_read_text(b)
        decoded = decode_instruction(words[0])
        assert decoded.mnemonic == "rocc" and decoded.funct7 == 4

    def test_rocc_unknown_function(self):
        with pytest.raises(AssemblerError):
            AsmBuilder().rocc("NOPE")

    def test_data_directives(self):
        b = AsmBuilder()
        b.data()
        b.label("bytes")
        b.byte(1, 2, 3)
        b.align(8)
        b.label("words")
        b.word(0x11223344)
        b.label("dwords")
        b.dword(0x1122334455667788)
        b.label("text")
        b.asciz("hi")
        b.space(5, fill=0xAA)
        image = b.link()
        base, data = image.segments[".data"]
        assert data[0:3] == bytes([1, 2, 3])
        assert image.symbol("words") % 8 == 0
        offset = image.symbol("dwords") - base
        assert data[offset:offset + 8] == (0x1122334455667788).to_bytes(8, "little")

    def test_prologue_epilogue_roundtrip_size(self):
        b = AsmBuilder()
        frame = b.prologue(("ra", "s0", "s1"))
        b.epilogue(("ra", "s0", "s1"))
        assert frame % 16 == 0
        assert len(b.current_section) == 4 * (1 + 3 + 3 + 1 + 1)

    def test_duplicate_label_rejected(self):
        b = AsmBuilder()
        b.label("x")
        with pytest.raises(LinkError):
            b.label("x")


class TestLinker:
    def test_undefined_label_raises(self):
        b = AsmBuilder()
        b.j("nowhere")
        with pytest.raises(LinkError):
            b.link()

    def test_custom_bases(self):
        b = AsmBuilder()
        b.label("_start")
        b.nop()
        image = b.link(text_base=0x4000, data_base=0x8000)
        assert image.segment_range(".text")[0] == 0x4000

    def test_overlap_detection(self):
        program = Program()
        program.sections[".text"] = Section(".text", data=bytearray(64))
        program.sections[".data"] = Section(".data", data=bytearray(64))
        linker = Linker(text_base=0x1000, data_base=0x1010)
        with pytest.raises(LinkError):
            linker.link(program)

    def test_entry_defaults_to_text_base(self):
        b = AsmBuilder()
        b.nop()
        image = b.link()
        assert image.entry == DEFAULT_TEXT_BASE

    def test_disassembly_dump(self):
        b = AsmBuilder()
        b.label("_start")
        b.emit("addi", "a0", "zero", 7)
        image = b.link()
        text = dump_disassembly(image)
        assert "_start:" in text and "addi" in text


class TestMacros:
    def test_paper_register_convention(self):
        macro = make_macro("DEC_ADD")
        assert macro.instruction.rs1 == 11
        assert macro.instruction.rs2 == 10
        assert macro.instruction.rd == 12

    def test_inline_asm_contains_word_directive(self):
        macro = make_macro("DEC_ADD")
        assert ".word 0x" in macro.inline_asm
        assert "DEC_ADD_rocc" in macro.c_wrapper()

    def test_standard_macro_set_covers_table_ii(self):
        macros = standard_macros()
        assert set(macros) == {
            "CLR_ALL", "WR", "RD", "DEC_ADD", "DEC_ACCUM", "DEC_CNV",
            "DEC_MUL", "ACCUM", "LD",
        }

    def test_table_iii_rows_roundtrip(self):
        rows = table_iii_rows()
        assert [row["instruction"] for row in rows] == ["CLR_ALL", "RD", "WR", "DEC_ADD"]
        for row in rows:
            word = int(row["hex"], 16)
            assert decode_instruction(word).mnemonic == "rocc"
            assert f"{word & 0x7F:07b}" == row["opcode"]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
def test_li_roundtrip_via_simulation(value):
    """Property: ``li`` materialises any 64-bit constant exactly."""
    from tests.conftest import run_fragment

    def body(b):
        b.li("t0", value & 0xFFFFFFFFFFFFFFFF)
        b.emit("sd", "t0", "a5", 0)

    result = run_fragment(body)
    assert result.read_dword("out") == value & 0xFFFFFFFFFFFFFFFF
