"""Helper-call registry: the bridge from bytecode to host functions.

A helper is a host-side Python callable the bytecode invokes with the
``call`` instruction.  Registries are small and explicit: each helper
has a stable numeric id (part of the ABI — the same ids must mean the
same functions on every xBGP-compliant host, or bytecode would not be
portable) and a name used by the assembler, the xc compiler and the
manifest's allowed-helpers list.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

__all__ = ["Helper", "HelperTable", "HelperError"]

#: Signature: helper(vm, r1, r2, r3, r4, r5) -> u64
HelperFn = Callable[..., int]


class HelperError(Exception):
    """A helper rejected its arguments or hit a host-side problem."""


class Helper:
    """One registered helper function."""

    __slots__ = ("helper_id", "name", "fn")

    def __init__(self, helper_id: int, name: str, fn: HelperFn):
        if helper_id < 0:
            raise ValueError(f"negative helper id {helper_id}")
        self.helper_id = helper_id
        self.name = name
        self.fn = fn

    def __repr__(self) -> str:
        return f"Helper({self.helper_id}, {self.name!r})"


class HelperTable:
    """Id- and name-addressable set of helpers for one VM execution."""

    def __init__(self) -> None:
        self._by_id: Dict[int, Helper] = {}
        self._by_name: Dict[str, Helper] = {}

    def register(self, helper_id: int, name: str, fn: HelperFn) -> Helper:
        if helper_id in self._by_id:
            raise ValueError(f"helper id {helper_id} already registered")
        if name in self._by_name:
            raise ValueError(f"helper name {name!r} already registered")
        helper = Helper(helper_id, name, fn)
        self._by_id[helper_id] = helper
        self._by_name[name] = helper
        return helper

    def get(self, helper_id: int) -> Optional[Helper]:
        return self._by_id.get(helper_id)

    def name_to_id(self) -> Dict[str, int]:
        """Mapping for the assembler/compiler (``call get_attr``)."""
        return {name: helper.helper_id for name, helper in self._by_name.items()}

    def ids(self) -> Iterable[int]:
        return self._by_id.keys()

    def restricted(self, names: Iterable[str]) -> "HelperTable":
        """A sub-table exposing only ``names``.

        The manifest "lists the different xBGP API functions that the
        bytecode uses" (§2.1); the VMM builds the per-bytecode table
        with exactly that subset so a call to anything else faults.
        """
        table = HelperTable()
        for name in names:
            helper = self._by_name.get(name)
            if helper is None:
                raise KeyError(f"unknown helper {name!r}")
            table.register(helper.helper_id, helper.name, helper.fn)
        return table

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, helper_id: int) -> bool:
        return helper_id in self._by_id
