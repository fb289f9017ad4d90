"""Lazily zeroed heap: freed bytes read as zero after reuse.

``reset_heap`` records a dirty high-watermark instead of memsetting;
the observable contract — every allocated block reads as zeros until
written — must be indistinguishable from a heap that is memset on every
reset, which the tests model with a plain zero-filled ``bytearray``.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.ebpf.memory import HEAP_BASE, SandboxViolation, VmMemory


def _dirty(memory: VmMemory, size: int, fill: int = 0xAB) -> int:
    address = memory.alloc(size)
    memory.write_bytes(address, bytes([fill]) * size)
    return address


def test_alloc_reads_zero_after_dirty_reset():
    memory = VmMemory(heap_size=256)
    _dirty(memory, 128)
    memory.reset_heap()
    # The raw buffer still holds the old bytes (that's the point of the
    # lazy reset)...
    assert any(memory.heap_region.data[:128])
    # ...but a fresh allocation over the dirty span reads as zeros.
    address = memory.alloc(128)
    assert memory.read_bytes(address, 128) == bytes(128)


def test_high_watermark_survives_shallow_runs():
    memory = VmMemory(heap_size=256)
    _dirty(memory, 200)
    memory.reset_heap()
    # A shallow run dirties less than the watermark; the watermark must
    # keep covering the deep run's leftovers.
    _dirty(memory, 24, fill=0xCD)
    memory.reset_heap()
    address = memory.alloc(200)
    assert memory.read_bytes(address, 200) == bytes(200)


def test_partial_reuse_scrubs_only_per_alloc():
    memory = VmMemory(heap_size=256)
    _dirty(memory, 192)
    memory.reset_heap()
    first = memory.alloc(64)
    second = memory.alloc(64)
    third = memory.alloc(64)
    for address in (first, second, third):
        assert memory.read_bytes(address, 64) == bytes(64)


def test_alloc_beyond_watermark_needs_no_scrub():
    memory = VmMemory(heap_size=256)
    _dirty(memory, 32)
    memory.reset_heap()
    # Allocation crossing from dirty into never-used territory: the
    # dirty prefix is scrubbed, the clean tail was never written.
    address = memory.alloc(96)
    assert memory.read_bytes(address, 96) == bytes(96)


def test_alloc_bytes_zeroes_alignment_padding():
    memory = VmMemory(heap_size=256)
    _dirty(memory, 64)
    memory.reset_heap()
    address = memory.alloc_bytes(b"\x11" * 13)  # aligned up to 16
    assert memory.read_bytes(address, 13) == b"\x11" * 13
    assert memory.read_bytes(address + 13, 3) == bytes(3)


@pytest.mark.parametrize("sizes", [(8, 16, 200), (240, 8), (1, 1, 1, 1)])
def test_lazy_and_eager_modes_observably_equivalent(sizes):
    """Fixed examples of what :class:`HeapAgainstEagerModel` explores."""
    lazy = VmMemory(heap_size=256)
    _dirty(lazy, 248)
    lazy.reset_heap()
    eager_used = 0  # the eager model: zero-filled, bump pointer only
    for size in sizes:
        address = lazy.alloc(size)
        assert address == HEAP_BASE + eager_used
        assert lazy.read_bytes(address, size) == bytes(size)
        eager_used += (size + 7) & ~7
    assert lazy.heap_used == eager_used


class HeapAgainstEagerModel(RuleBasedStateMachine):
    """alloc / alloc_bytes / write / reset in any order, against a heap
    that is eagerly zeroed: a ``bytearray`` whose used span is memset on
    reset.  Every fresh block must read as zeros and the live span must
    match the model byte for byte."""

    SIZE = 128

    def __init__(self):
        super().__init__()
        self.memory = VmMemory(heap_size=self.SIZE)
        self.model = bytearray(self.SIZE)
        self.used = 0
        self.blocks = []  # (offset, size) of live allocations

    def _fits(self, size):
        return self.used + ((size + 7) & ~7) <= self.SIZE

    @rule(size=st.integers(0, 48))
    def alloc(self, size):
        if not self._fits(size):
            with pytest.raises(SandboxViolation, match="heap exhausted"):
                self.memory.alloc(size)
            return
        address = self.memory.alloc(size)
        assert address == HEAP_BASE + self.used
        aligned = (size + 7) & ~7
        assert self.memory.read_bytes(address, aligned) == bytes(aligned)
        self.blocks.append((self.used, aligned))
        self.used += aligned

    @rule(payload=st.binary(max_size=40))
    def alloc_bytes(self, payload):
        if not self._fits(len(payload)):
            with pytest.raises(SandboxViolation, match="heap exhausted"):
                self.memory.alloc_bytes(payload)
            return
        address = self.memory.alloc_bytes(payload)
        assert address == HEAP_BASE + self.used
        aligned = (len(payload) + 7) & ~7
        self.model[self.used : self.used + aligned] = payload.ljust(aligned, b"\0")
        self.blocks.append((self.used, aligned))
        self.used += aligned

    @precondition(lambda self: any(size for _, size in self.blocks))
    @rule(data=st.data())
    def write(self, data):
        offset, size = data.draw(
            st.sampled_from([block for block in self.blocks if block[1]])
        )
        start = data.draw(st.integers(0, size - 1))
        payload = data.draw(st.binary(min_size=1, max_size=size - start))
        self.memory.write_bytes(HEAP_BASE + offset + start, payload)
        self.model[offset + start : offset + start + len(payload)] = payload

    @rule()
    def reset(self):
        self.memory.reset_heap()
        self.model[: self.used] = bytes(self.used)
        self.used = 0
        self.blocks = []

    @invariant()
    def live_span_matches_the_model(self):
        assert self.memory.heap_used == self.used
        assert self.memory.read_bytes(HEAP_BASE, self.used) == bytes(self.model[: self.used])


TestHeapAgainstEagerModel = HeapAgainstEagerModel.TestCase
TestHeapAgainstEagerModel.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def test_heap_region_identity_stable_across_resets():
    memory = VmMemory(heap_size=256)
    buffer = memory.heap_region.data
    _dirty(memory, 64)
    memory.reset_heap()
    memory.alloc(32)
    # JIT fast paths close over the bytearray once; resets must mutate
    # it in place, never swap in a new one.
    assert memory.heap_region.data is buffer


def test_exhaustion_unchanged_by_lazy_mode():
    memory = VmMemory(heap_size=64)
    _dirty(memory, 64)
    memory.reset_heap()
    memory.alloc(64)
    with pytest.raises(SandboxViolation, match="heap exhausted"):
        memory.alloc(8)
