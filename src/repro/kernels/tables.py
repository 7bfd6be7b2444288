"""Lookup tables embedded in every generated test program's data section.

The paper's Method-1 converts DPD declets to BCD "in software" — in practice
(as in decNumber itself) that means table lookups.  The software baseline
needs the binary variants of the same tables plus a powers-of-ten table for
digit counting and rounding.
"""

from __future__ import annotations

import functools
import struct

from repro.asm.builder import DATA
from repro.decnumber import dpd

#: Symbol names of the embedded tables (shared between testgen and kernels).
TABLE_SYMBOLS = {
    "dpd2bin": "tbl_dpd2bin",    # declet -> binary value 0..999 (halfwords)
    "dpd2bcd": "tbl_dpd2bcd",    # declet -> 12-bit packed BCD   (halfwords)
    "bin2dpd": "tbl_bin2dpd",    # value 0..999 -> declet         (halfwords)
    "bcd2dpd": "tbl_bcd2dpd",    # 12-bit packed BCD -> declet    (halfwords)
    "pow10": "tbl_pow10",        # 10**k for k = 0..19            (dwords)
}


@functools.cache
def _table_blob() -> tuple:
    """``(blob, ((symbol, offset), ...))``: every table, laid out once.

    Offsets are relative to an 8-byte-aligned start; each table begins on an
    8-byte boundary.  Built once per process: every test program embeds the
    same bytes.
    """
    halfword_tables = (
        ("dpd2bin", [dpd.decode_declet(declet) for declet in range(1024)]),
        ("dpd2bcd", dpd.declet_table_bcd()),
        ("bin2dpd", [dpd.encode_declet(value) for value in range(1000)]),
        ("bcd2dpd", dpd.bcd_to_declet_table()),
    )
    blob = bytearray()
    symbols = []
    for key, values in halfword_tables:
        blob.extend(bytes(-len(blob) % 8))
        symbols.append((TABLE_SYMBOLS[key], len(blob)))
        blob.extend(struct.pack(f"<{len(values)}H", *values))
    blob.extend(bytes(-len(blob) % 8))
    symbols.append((TABLE_SYMBOLS["pow10"], len(blob)))
    blob.extend(struct.pack("<20Q", *(10 ** k for k in range(20))))
    return bytes(blob), tuple(symbols)


def emit_tables(builder) -> None:
    """Emit every table into the builder's *data* section.

    The builder's current section is switched to ``.data`` and left there.
    """
    builder.data()
    builder.align(8)
    base = builder.here()
    blob, symbols = _table_blob()
    for symbol, offset in symbols:
        builder.program.define_symbol(symbol, DATA, base + offset)
    builder.current_section.append_bytes(blob)
