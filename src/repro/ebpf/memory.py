"""Sandboxed VM memory: bounds-checked regions in a virtual address space.

The paper leans on eBPF's isolation guarantee ("an extension code has
its own dedicated memory space and cannot directly access the memory of
other extension codes or the host implementation").  Here that isolation
is concrete: a VM can only dereference addresses that fall inside a
region registered with its :class:`VmMemory`; everything else raises
:class:`SandboxViolation`, which the VMM turns into a fallback to the
host's native code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "SandboxViolation",
    "MemoryRegion",
    "VmMemory",
    "STACK_SIZE",
    "STACK_BASE",
    "HEAP_BASE",
    "ARG_BASE",
]

STACK_SIZE = 512
#: Virtual layout: the exact numbers are arbitrary but stable, and far
#: from zero so that null-pointer dereferences always fault.
STACK_BASE = 0x1000_0000
ARG_BASE = 0x2000_0000
HEAP_BASE = 0x3000_0000
SHARED_BASE = 0x4000_0000


class SandboxViolation(Exception):
    """An extension code touched memory outside its sandbox."""


class MemoryRegion:
    """A contiguous, optionally read-only, span of VM memory."""

    __slots__ = ("base", "data", "writable", "label")

    def __init__(self, base: int, size: int, writable: bool = True, label: str = ""):
        if size < 0:
            raise ValueError(f"negative region size: {size}")
        self.base = base
        self.data = bytearray(size)
        self.writable = writable
        self.label = label or f"region@{base:#x}"

    @property
    def end(self) -> int:
        return self.base + len(self.data)

    def contains(self, address: int, size: int) -> bool:
        return self.base <= address and address + size <= self.end

    def __repr__(self) -> str:
        mode = "rw" if self.writable else "ro"
        return f"MemoryRegion({self.label}, {self.base:#x}+{len(self.data)}, {mode})"


class VmMemory:
    """The address space of one virtual machine execution.

    Holds the stack, the argument region and a bump-allocated heap that
    helper functions use to hand structured data (peer info, attribute
    bytes…) to the extension code.  The heap is *ephemeral*: §2.1 of the
    paper notes ephemeral allocations are freed automatically when the
    extension code finishes — :meth:`reset_heap` implements that.
    """

    def __init__(self, heap_size: int = 1 << 16):
        self.stack = MemoryRegion(STACK_BASE, STACK_SIZE, writable=True, label="stack")
        self._heap = MemoryRegion(HEAP_BASE, heap_size, writable=True, label="heap")
        self._heap_used = 0
        #: High-watermark of bytes dirtied by *freed* allocations.
        #: :meth:`reset_heap` only records this watermark instead of
        #: memsetting the used span; the bytes are re-zeroed lazily, by
        #: the first allocation that reuses them.  The contract a
        #: program can observe is that every *allocated* block reads as
        #: zeros until written — a run that allocates 200 bytes does not
        #: pay to scrub the previous run's span on every reset.
        self._heap_dirty = 0
        self._regions: List[MemoryRegion] = [self.stack, self._heap]
        self._shared: Optional[MemoryRegion] = None

    # -- region management ---------------------------------------------

    def attach(self, region: MemoryRegion, shared: bool = False) -> None:
        """Register an extra region; ``shared`` marks the program's shared
        region (one at most).  No detach: compiled code binds buffers once."""
        if shared and self._shared is not None:
            raise ValueError(f"{self._shared} is already the shared region")
        for existing in self._regions:
            if existing.base < region.end and region.base < existing.end:
                raise ValueError(f"{region} overlaps {existing}")
        self._regions.append(region)
        if shared:
            self._shared = region

    def frame_pointer(self) -> int:
        """Initial r10: one past the top of the stack (grows down)."""
        return self.stack.end

    # -- heap ------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Bump-allocate ``size`` bytes of zeroed heap; return the VM address."""
        if size < 0:
            raise ValueError(f"negative allocation: {size}")
        aligned = (size + 7) & ~7
        used = self._heap_used
        new_used = used + aligned
        data = self._heap.data
        if new_used > len(data):
            raise SandboxViolation(
                f"heap exhausted: {used}+{aligned} > {len(data)}"
            )
        dirty = self._heap_dirty
        if dirty > used:
            # Lazy zeroing: scrub only the part of this block a freed
            # run dirtied.
            end = new_used if new_used < dirty else dirty
            data[used:end] = bytes(end - used)
        self._heap_used = new_used
        return self._heap.base + used

    def alloc_bytes(self, payload: bytes) -> int:
        """Allocate and fill a heap block; return its VM address.

        Hot path for every helper that hands a struct to the extension
        (``get_attr``, ``get_peer_info``…): writes straight into the
        heap buffer, skipping region translation, and zeroes only the
        alignment padding instead of the whole block.
        """
        size = len(payload)
        aligned = (size + 7) & ~7
        used = self._heap_used
        new_used = used + aligned
        data = self._heap.data
        if new_used > len(data):
            raise SandboxViolation(
                f"heap exhausted: {used}+{aligned} > {len(data)}"
            )
        data[used : used + size] = payload
        if size != aligned:
            data[used + size : new_used] = bytes(aligned - size)
        self._heap_used = new_used
        return self._heap.base + used

    def reset_heap(self) -> None:
        """Free all ephemeral allocations (end of extension execution).

        Zero-fill-free: records the dirty high-watermark and rewinds
        the bump pointer; freed bytes are scrubbed on reuse by
        :meth:`alloc`.
        """
        used = self._heap_used
        if used:
            if used > self._heap_dirty:
                self._heap_dirty = used
            self._heap_used = 0

    @property
    def heap_used(self) -> int:
        return self._heap_used

    @property
    def heap_region(self) -> MemoryRegion:
        """The heap region, for JIT fast paths.

        Stable for the lifetime of this :class:`VmMemory`: resets and
        lazy zeroing mutate ``heap_region.data`` in place and never
        replace the bytearray, so translated code may close over the
        buffer once and keep using it across runs.
        """
        return self._heap

    @property
    def shared_region(self) -> Optional[MemoryRegion]:
        """The region attached with ``shared=True``, or None: probed
        inline by the compiled tier, so attached before translation; its
        bytearray (made once by ``ProgramState``) is mutated in place."""
        return self._shared

    # -- access -----------------------------------------------------------

    def _translate(self, address: int, size: int, write: bool) -> Tuple[MemoryRegion, int]:
        for region in self._regions:
            base = region.base
            if base <= address and address + size <= base + len(region.data):
                if write and not region.writable:
                    raise SandboxViolation(
                        f"write to read-only {region.label} at {address:#x}"
                    )
                return region, address - base
        raise SandboxViolation(
            f"{'write' if write else 'read'} of {size} bytes at {address:#x} "
            "outside sandbox"
        )

    # Heap and stack carry nearly all helper traffic (helper structs
    # are heap-allocated, value buffers live on the stack), and both
    # are always writable — so every accessor probes them directly
    # before falling back to the general region walk.

    def read(self, address: int, size: int) -> int:
        """Load ``size`` bytes little-endian (eBPF is little-endian)."""
        heap = self._heap
        offset = address - heap.base
        if 0 <= offset and offset + size <= len(heap.data):
            return int.from_bytes(heap.data[offset : offset + size], "little")
        stack = self.stack
        offset = address - stack.base
        if 0 <= offset and offset + size <= len(stack.data):
            return int.from_bytes(stack.data[offset : offset + size], "little")
        region, offset = self._translate(address, size, write=False)
        return int.from_bytes(region.data[offset : offset + size], "little")

    def write(self, address: int, size: int, value: int) -> None:
        """Store the low ``size`` bytes of ``value`` little-endian."""
        payload = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        heap = self._heap
        offset = address - heap.base
        if 0 <= offset and offset + size <= len(heap.data):
            heap.data[offset : offset + size] = payload
            return
        stack = self.stack
        offset = address - stack.base
        if 0 <= offset and offset + size <= len(stack.data):
            stack.data[offset : offset + size] = payload
            return
        region, offset = self._translate(address, size, write=True)
        region.data[offset : offset + size] = payload

    def read_bytes(self, address: int, size: int) -> bytes:
        heap = self._heap
        offset = address - heap.base
        if 0 <= offset and offset + size <= len(heap.data):
            return bytes(heap.data[offset : offset + size])
        stack = self.stack
        offset = address - stack.base
        if 0 <= offset and offset + size <= len(stack.data):
            return bytes(stack.data[offset : offset + size])
        region, offset = self._translate(address, size, write=False)
        return bytes(region.data[offset : offset + size])

    def write_bytes(self, address: int, payload: bytes) -> None:
        size = len(payload)
        heap = self._heap
        offset = address - heap.base
        if 0 <= offset and offset + size <= len(heap.data):
            heap.data[offset : offset + size] = payload
            return
        stack = self.stack
        offset = address - stack.base
        if 0 <= offset and offset + size <= len(stack.data):
            stack.data[offset : offset + size] = payload
            return
        region, offset = self._translate(address, size, write=True)
        region.data[offset : offset + size] = payload

    def read_cstring(self, address: int, limit: int = 4096) -> bytes:
        """Read a NUL-terminated string (for debug-print helpers)."""
        out = bytearray()
        for index in range(limit):
            byte = self.read(address + index, 1)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        raise SandboxViolation(f"unterminated string at {address:#x}")
