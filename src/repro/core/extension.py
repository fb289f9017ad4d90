"""Extension codes, xBGP programs and their shared state.

An *extension code* is one bytecode blob attached to one insertion
point.  An *xBGP program* is a named group of extension codes that
together implement a feature (the GeoLoc program of Fig. 2 has four
codes on four insertion points).  Codes of the same program share a
persistent memory space and a set of maps; codes of different programs
are fully isolated from one another.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..ebpf.isa import Instruction
from ..ebpf.memory import MemoryRegion, SandboxViolation
from .insertion_points import InsertionPoint

__all__ = [
    "ExtensionCode",
    "XbgpProgram",
    "ProgramState",
    "SHARED_BASE",
    "DEFAULT_SHARED_SIZE",
]

SHARED_BASE = 0x4000_0000
DEFAULT_SHARED_SIZE = 1 << 16


class ExtensionCode:
    """One eBPF bytecode blob plus its attachment metadata.

    ``layout_hint`` asserts the bytecode follows the xc frame
    convention (scalars/blocks segregated) — compiler-provided metadata
    the JIT may trust, in the spirit of BTF.  Raw hand-written bytecode
    should leave it False.
    """

    __slots__ = (
        "name",
        "instructions",
        "helper_names",
        "insertion_point",
        "seq",
        "layout_hint",
    )

    def __init__(
        self,
        name: str,
        instructions: Sequence[Instruction],
        helper_names: Sequence[str],
        insertion_point: InsertionPoint,
        seq: int = 0,
        layout_hint: bool = False,
    ):
        self.name = name
        self.instructions = list(instructions)
        self.helper_names = list(helper_names)
        self.insertion_point = insertion_point
        self.seq = seq
        self.layout_hint = layout_hint

    def __repr__(self) -> str:
        return (
            f"ExtensionCode({self.name!r}, {self.insertion_point.name}, "
            f"seq={self.seq}, {len(self.instructions)} insns)"
        )


class ProgramState:
    """Shared persistent state of one xBGP program.

    * ``shared`` — a :class:`MemoryRegion` mapped into every VM of the
      program at the same virtual address (``ctx_shmnew``/``ctx_shmget``
      hand out chunks of it);
    * ``maps`` — eBPF-map-like key/value stores living host side and
      reached through the ``map_*`` helpers; the manifest may preload
      them (ROA tables, the valley-free level pairs…).
    """

    def __init__(self, shared_size: int = DEFAULT_SHARED_SIZE):
        self.shared = MemoryRegion(SHARED_BASE, shared_size, writable=True, label="shm")
        #: shm key -> offset into ``shared`` (the bound ``ctx_shmget``
        #: reads it directly).
        self.shm_offsets: Dict[int, int] = {}
        self._shm_used = 0
        self.maps: Dict[int, Dict[int, List[int]]] = {}
        self._next_map_id = 1

    # -- shared memory ---------------------------------------------------

    def shm_new(self, key: int, size: int) -> int:
        """Allocate ``size`` shared bytes under ``key``; return VM address."""
        if key in self.shm_offsets:
            raise SandboxViolation(f"shm key {key} already allocated")
        aligned = (size + 7) & ~7
        if self._shm_used + aligned > len(self.shared.data):
            raise SandboxViolation("shared memory exhausted")
        offset = self._shm_used
        self._shm_used += aligned
        self.shm_offsets[key] = offset
        return self.shared.base + offset

    def shm_get(self, key: int) -> int:
        """VM address for ``key``, or 0 when never allocated."""
        offset = self.shm_offsets.get(key)
        return 0 if offset is None else self.shared.base + offset

    # -- maps ----------------------------------------------------------------

    def map_new(self) -> int:
        map_id = self._next_map_id
        self._next_map_id += 1
        self.maps[map_id] = {}
        return map_id

    def map_update(self, map_id: int, key: int, value: int) -> None:
        table = self.maps.get(map_id)
        if table is None:
            raise KeyError(f"no map {map_id}")
        table.setdefault(key, []).append(value)

    def map_lookup(self, map_id: int, key: int, index: int = 0) -> Optional[int]:
        table = self.maps.get(map_id)
        if table is None:
            raise KeyError(f"no map {map_id}")
        values = table.get(key)
        if values is None or index >= len(values):
            return None
        return values[index]

    def map_size(self, map_id: int) -> int:
        table = self.maps.get(map_id)
        if table is None:
            raise KeyError(f"no map {map_id}")
        return len(table)


class XbgpProgram:
    """A named group of extension codes plus preloaded map data."""

    def __init__(
        self,
        name: str,
        codes: Sequence[ExtensionCode],
        map_data: Optional[Dict[str, Dict[int, List[int]]]] = None,
        shared_size: int = DEFAULT_SHARED_SIZE,
    ):
        self.name = name
        self.codes = list(codes)
        self.shared_size = shared_size
        self.map_data = dict(map_data or {})
        #: Map name -> id, assigned in sorted-name order at state build
        #: time so plugins can be compiled against stable ``MAP_<NAME>``
        #: constants.
        self.map_ids: Dict[str, int] = {}

    def build_state(self) -> ProgramState:
        """Instantiate the program's shared state, preloading maps."""
        state = ProgramState(self.shared_size)
        for map_name in sorted(self.map_data):
            map_id = state.map_new()
            self.map_ids[map_name] = map_id
            for key, values in self.map_data[map_name].items():
                for value in values:
                    state.map_update(map_id, key, value)
        return state

    def map_constants(self) -> Dict[str, int]:
        """``MAP_<NAME> -> id`` constants for compiling plugin sources."""
        if not self.map_ids:
            # Assign ids deterministically without building state yet.
            for index, map_name in enumerate(sorted(self.map_data), start=1):
                self.map_ids[map_name] = index
        return {
            f"MAP_{name.upper()}": map_id for name, map_id in self.map_ids.items()
        }

    def __repr__(self) -> str:
        return f"XbgpProgram({self.name!r}, {len(self.codes)} codes)"
