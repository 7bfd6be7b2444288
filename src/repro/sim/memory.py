"""Sparse little-endian memory with MMIO hooks.

The simulated machine has a flat physical address space.  Pages are allocated
lazily so that placing the text segment at 256 MiB and the stack at 768 MiB
costs nothing.  A small MMIO mechanism lets the HTIF host interface intercept
writes to its ``tohost`` register.

The scalar :meth:`SparseMemory.read`/:meth:`SparseMemory.write` pair sits on
the fetch/load/store inner loop of every simulator, so it has a dedicated
fast path: a last-page cache (one for loads, one for stores, since fetches
hit text while stores hit the stack) avoids the page-dictionary lookup for
consecutive same-page accesses, and page bytes are converted with
preconverted :mod:`struct` codecs instead of slice-allocating
``int.from_bytes`` / ``int.to_bytes`` round trips.
"""

from __future__ import annotations

import struct

from repro.errors import MemoryError_

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

# Preconverted little-endian scalar codecs for the hot path.
_U16_FROM = struct.Struct("<H").unpack_from
_U32_FROM = struct.Struct("<I").unpack_from
_U64_FROM = struct.Struct("<Q").unpack_from
_U16_INTO = struct.Struct("<H").pack_into
_U32_INTO = struct.Struct("<I").pack_into
_U64_INTO = struct.Struct("<Q").pack_into


class SparseMemory:
    """Byte-addressable sparse memory."""

    __slots__ = (
        "_pages",
        "_write_hooks",
        "_read_hooks",
        "_read_page_number",
        "_read_page",
        "_write_page_number",
        "_write_page",
    )

    def __init__(self) -> None:
        self._pages = {}
        self._write_hooks = {}
        self._read_hooks = {}
        # Last-page caches (page number -> page bytes); pages are never
        # deleted, and only existing pages are cached, so entries can't go
        # stale.
        self._read_page_number = None
        self._read_page = None
        self._write_page_number = None
        self._write_page = None

    # ------------------------------------------------------------------- MMIO
    def add_write_hook(self, address: int, callback) -> None:
        """Call ``callback(value, size)`` instead of storing at ``address``."""
        self._write_hooks[address] = callback

    def add_read_hook(self, address: int, callback) -> None:
        """Call ``callback(size) -> int`` instead of loading from ``address``."""
        self._read_hooks[address] = callback

    # ------------------------------------------------------------------ pages
    def _page(self, page_number: int) -> bytearray:
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_number] = page
        return page

    # ------------------------------------------------------------------ bytes
    def write_bytes(self, address: int, data: bytes) -> None:
        if address < 0:
            raise MemoryError_(f"negative address: {address:#x}")
        offset = 0
        remaining = len(data)
        while remaining:
            page_number = (address + offset) >> PAGE_SHIFT
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(PAGE_SIZE - page_offset, remaining)
            self._page(page_number)[page_offset:page_offset + chunk] = data[
                offset:offset + chunk
            ]
            offset += chunk
            remaining -= chunk

    def read_bytes(self, address: int, length: int) -> bytes:
        if address < 0:
            raise MemoryError_(f"negative address: {address:#x}")
        # Preallocate: unbacked ranges stay zero and backed chunks are copied
        # into place, instead of growing a bytearray chunk by chunk.
        result = bytearray(length)
        offset = 0
        while offset < length:
            page_number = (address + offset) >> PAGE_SHIFT
            page_offset = (address + offset) & PAGE_MASK
            chunk = min(PAGE_SIZE - page_offset, length - offset)
            page = self._pages.get(page_number)
            if page is not None:
                result[offset:offset + chunk] = page[page_offset:page_offset + chunk]
            offset += chunk
        return bytes(result)

    # ----------------------------------------------------------------- scalar
    def read(self, address: int, size: int) -> int:
        """Load ``size`` bytes (1/2/4/8) little-endian, returning an unsigned int."""
        if self._read_hooks:
            hook = self._read_hooks.get(address)
            if hook is not None:
                return hook(size)
        page_offset = address & PAGE_MASK
        if page_offset + size <= PAGE_SIZE:
            page_number = address >> PAGE_SHIFT
            if page_number == self._read_page_number:
                page = self._read_page
            else:
                page = self._pages.get(page_number)
                if page is None:
                    return 0
                self._read_page_number = page_number
                self._read_page = page
            if size == 8:
                return _U64_FROM(page, page_offset)[0]
            if size == 4:
                return _U32_FROM(page, page_offset)[0]
            if size == 2:
                return _U16_FROM(page, page_offset)[0]
            if size == 1:
                return page[page_offset]
            return int.from_bytes(page[page_offset:page_offset + size], "little")
        return int.from_bytes(self.read_bytes(address, size), "little")

    def write(self, address: int, size: int, value: int) -> None:
        """Store ``size`` bytes (1/2/4/8) little-endian."""
        hook = self._write_hooks.get(address)
        if hook is not None:
            hook(value & ((1 << (8 * size)) - 1), size)
            return
        page_offset = address & PAGE_MASK
        if page_offset + size <= PAGE_SIZE:
            page_number = address >> PAGE_SHIFT
            if page_number == self._write_page_number:
                page = self._write_page
            else:
                page = self._pages.get(page_number)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    self._pages[page_number] = page
                self._write_page_number = page_number
                self._write_page = page
            if size == 8:
                _U64_INTO(page, page_offset, value & 0xFFFFFFFFFFFFFFFF)
            elif size == 4:
                _U32_INTO(page, page_offset, value & 0xFFFFFFFF)
            elif size == 2:
                _U16_INTO(page, page_offset, value & 0xFFFF)
            elif size == 1:
                page[page_offset] = value & 0xFF
            else:
                page[page_offset:page_offset + size] = (
                    value & ((1 << (8 * size)) - 1)
                ).to_bytes(size, "little")
        else:
            self.write_bytes(
                address, (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
            )

    # ------------------------------------------------------------ convenience
    def read_dword(self, address: int) -> int:
        return self.read(address, 8)

    def write_dword(self, address: int, value: int) -> None:
        self.write(address, 8, value)

    def read_word(self, address: int) -> int:
        return self.read(address, 4)

    def write_word(self, address: int, value: int) -> None:
        self.write(address, 4, value)

    def load_image(self, image) -> None:
        """Copy every segment of a linked :class:`~repro.asm.program.Image`."""
        for base, data in image.iter_bytes():
            self.write_bytes(base, data)

    def allocated_bytes(self) -> int:
        """Number of bytes currently backed by real pages (for tests)."""
        return len(self._pages) * PAGE_SIZE
