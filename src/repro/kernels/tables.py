"""Lookup tables embedded in every generated test program's data section.

The paper's Method-1 converts DPD declets to BCD "in software" — in practice
(as in decNumber itself) that means table lookups.  The software baseline
needs the binary variants of the same tables plus a powers-of-ten table for
digit counting and rounding.
"""

from __future__ import annotations

from repro.decnumber import dpd

#: Symbol names of the embedded tables (shared between testgen and kernels).
TABLE_SYMBOLS = {
    "dpd2bin": "tbl_dpd2bin",    # declet -> binary value 0..999 (halfwords)
    "dpd2bcd": "tbl_dpd2bcd",    # declet -> 12-bit packed BCD   (halfwords)
    "bin2dpd": "tbl_bin2dpd",    # value 0..999 -> declet         (halfwords)
    "bcd2dpd": "tbl_bcd2dpd",    # 12-bit packed BCD -> declet    (halfwords)
    "pow10": "tbl_pow10",        # 10**k for k = 0..19            (dwords)
}


def _emit_halfword_table(builder, label: str, values) -> None:
    builder.align(8)
    builder.label(label)
    for value in values:
        builder.current_section.append_bytes(
            int(value & 0xFFFF).to_bytes(2, "little")
        )


def emit_tables(builder) -> None:
    """Emit every table into the builder's *data* section.

    The builder's current section is switched to ``.data`` and left there.
    """
    builder.data()
    _emit_halfword_table(
        builder,
        TABLE_SYMBOLS["dpd2bin"],
        (dpd.decode_declet(declet) for declet in range(1024)),
    )
    _emit_halfword_table(
        builder, TABLE_SYMBOLS["dpd2bcd"], dpd.declet_table_bcd()
    )
    _emit_halfword_table(
        builder,
        TABLE_SYMBOLS["bin2dpd"],
        (dpd.encode_declet(value) for value in range(1000)),
    )
    _emit_halfword_table(
        builder, TABLE_SYMBOLS["bcd2dpd"], dpd.bcd_to_declet_table()
    )
    builder.align(8)
    builder.label(TABLE_SYMBOLS["pow10"])
    builder.dword(*[10 ** k for k in range(20)])
