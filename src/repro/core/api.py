"""The xBGP API: helper implementations shared by every host.

Each helper pulls the current :class:`ExecutionContext` from the VM it
is servicing and delegates host-specific work to the
:class:`HostImplementation` glue.  All BGP payload bytes cross this
boundary in network byte order (the neutral representation); struct
headers use little-endian fields per the eBPF load convention.
"""

from __future__ import annotations

import math
import struct
from typing import Optional

from ..bgp.prefix import Prefix, PrefixDecodeError
from ..ebpf.helpers import HelperError, HelperTable
from .abi import (
    ARG_MESSAGE,
    ARG_PREFIX,
    ARG_ROUTE_BEST,
    ARG_ROUTE_NEW,
    HELPER_IDS,
    MAP_NO_ENTRY,
    pack_arg,
    pack_nexthop_info,
    pack_peer_info,
)
from .context import ExecutionContext, NextRequested

__all__ = ["build_helper_table"]


def _ctx(vm) -> ExecutionContext:
    # Plain attribute access (VirtualMachine initialises ``ctx`` to
    # None); helpers run a few times per route, so the getattr-with-
    # default form was measurable.
    ctx = vm.ctx
    if ctx is None:
        raise HelperError("helper called outside an insertion point")
    return ctx


def _state(vm):
    state = vm.program_state
    if state is None:
        raise HelperError("extension has no program state")
    return state


def build_helper_table() -> HelperTable:
    """Build the full xBGP helper table.

    The VMM narrows this to each bytecode's manifest-declared subset
    with :meth:`HelperTable.restricted`.
    """
    table = HelperTable()
    ids = HELPER_IDS

    # -- control flow ---------------------------------------------------

    def helper_next(vm, *args) -> int:
        _ctx(vm)  # HelperError outside an insertion point
        # A fresh instance per raise: CPython prepends to an instance's
        # __traceback__ on every raise, so a shared one would pin every
        # run's frames (and the contexts and routes they hold).
        raise NextRequested()

    # -- argument / peer access ------------------------------------------

    def get_arg(vm, arg_id, *args) -> int:
        ctx = _ctx(vm)
        payload: Optional[bytes] = None
        if arg_id == ARG_MESSAGE:
            payload = ctx.message
        elif arg_id == ARG_PREFIX:
            payload = ctx.prefix.encode() if ctx.prefix is not None else None
        elif arg_id == ARG_ROUTE_NEW and ctx.route is not None:
            payload = ctx.host.encode_route_attributes(ctx, ctx.route)
        elif arg_id == ARG_ROUTE_BEST and ctx.best_route is not None:
            payload = ctx.host.encode_route_attributes(ctx, ctx.best_route)
        if payload is None:
            return 0
        return vm.memory.alloc_bytes(pack_arg(payload))

    def get_peer_info(vm, *args) -> int:
        ctx = _ctx(vm)
        if ctx.neighbor is None:
            return 0
        return vm.memory.alloc_bytes(pack_peer_info(ctx.neighbor, ctx.host.hot_path))

    def get_prefix(vm, *args) -> int:
        ctx = _ctx(vm)
        if ctx.prefix is None:
            return 0
        return vm.memory.alloc_bytes(pack_arg(ctx.prefix.encode()))

    def get_src_peer_info(vm, *args) -> int:
        """Peer info of the neighbor the route in scope was *learned
        from* (on export, ``get_peer_info`` reports the destination)."""
        ctx = _ctx(vm)
        source = getattr(ctx.route, "source", None)
        if source is None:
            source = ctx.hidden.get("source")
        if source is None:
            return 0
        return vm.memory.alloc_bytes(pack_peer_info(source, ctx.host.hot_path))

    # -- attribute access -------------------------------------------------

    def get_attr(vm, code, *args) -> int:
        ctx = _ctx(vm)
        packed = ctx.host.get_attr_packed(ctx, int(code))
        prov = ctx.host.provenance
        if prov is not None:
            prov.record_api(ctx, "get_attr", code=int(code), found=packed is not None)
        if packed is None:
            return 0
        return vm.memory.alloc_bytes(packed)

    def set_attr(vm, code, flags, data_ptr, length, *args) -> int:
        ctx = _ctx(vm)
        value = vm.memory.read_bytes(data_ptr, length) if length else b""
        ok = ctx.host.set_attr(ctx, int(code), int(flags), value)
        prov = ctx.host.provenance
        if prov is not None:
            prov.record_api(ctx, "set_attr", code=int(code), value=value, ok=ok)
        return 1 if ok else 0

    def add_attr(vm, code, flags, data_ptr, length, *args) -> int:
        ctx = _ctx(vm)
        value = vm.memory.read_bytes(data_ptr, length) if length else b""
        ok = ctx.host.add_attr(ctx, int(code), int(flags), value)
        prov = ctx.host.provenance
        if prov is not None:
            prov.record_api(ctx, "add_attr", code=int(code), value=value, ok=ok)
        return 1 if ok else 0

    def remove_attr(vm, code, *args) -> int:
        ctx = _ctx(vm)
        ok = ctx.host.remove_attr(ctx, int(code))
        prov = ctx.host.provenance
        if prov is not None:
            prov.record_api(ctx, "remove_attr", code=int(code), ok=ok)
        return 1 if ok else 0

    # -- topology / configuration -------------------------------------------

    def get_nexthop(vm, *args) -> int:
        ctx = _ctx(vm)
        address, metric, reachable = ctx.host.get_nexthop(ctx)
        prov = ctx.host.provenance
        if prov is not None:
            prov.record_api(
                ctx, "get_nexthop", address=address, metric=metric, reachable=reachable
            )
        return vm.memory.alloc_bytes(pack_nexthop_info(address, metric, reachable))

    def get_xtra(vm, key_ptr, *args) -> int:
        ctx = _ctx(vm)
        key = vm.memory.read_cstring(key_ptr).decode("ascii", "replace")
        value = ctx.host.get_xtra(ctx, key)
        if value is None:
            return 0
        return vm.memory.alloc_bytes(pack_arg(value))

    # -- output ------------------------------------------------------------

    def write_buf(vm, data_ptr, length, *args) -> int:
        ctx = _ctx(vm)
        if ctx.out_buffer is None:
            raise HelperError("write_buf outside BGP_ENCODE_MESSAGE")
        if length:
            ctx.out_buffer.extend(vm.memory.read_bytes(data_ptr, length))
        prov = ctx.host.provenance
        if prov is not None:
            prov.record_api(ctx, "write_buf", length=int(length))
        return int(length)

    # -- memory utilities -----------------------------------------------------

    def ebpf_memcpy(vm, dst, src, length, *args) -> int:
        if length:
            vm.memory.write_bytes(dst, vm.memory.read_bytes(src, length))
        return int(dst)

    def ebpf_print(vm, str_ptr, *args) -> int:
        ctx = _ctx(vm)
        text = vm.memory.read_cstring(str_ptr).decode("ascii", "replace")
        ctx.host.log(f"[xbgp] {text}")
        return 0

    def ctx_malloc(vm, size, *args) -> int:
        return vm.memory.alloc(int(size))

    def ctx_shmnew(vm, key, size, *args) -> int:
        return _state(vm).shm_new(int(key), int(size))

    def ctx_shmget(vm, key, *args) -> int:
        return _state(vm).shm_get(int(key))

    # -- RIB -------------------------------------------------------------------

    def rib_announce(vm, prefix_ptr, next_hop, *args) -> int:
        ctx = _ctx(vm)
        header = vm.memory.read_bytes(prefix_ptr, 1)
        nbytes = (header[0] + 7) // 8
        raw = vm.memory.read_bytes(prefix_ptr, 1 + nbytes)
        try:
            prefix, _ = Prefix.decode(raw)
        except PrefixDecodeError as exc:
            raise HelperError(f"rib_announce: {exc}") from exc
        ok = ctx.host.rib_announce(ctx, prefix, int(next_hop))
        prov = ctx.host.provenance
        if prov is not None:
            prov.record_api(ctx, "rib_announce", prefix=str(prefix), ok=ok)
        return 1 if ok else 0

    # -- maps --------------------------------------------------------------------

    def map_new(vm, *args) -> int:
        return _state(vm).map_new()

    def map_update(vm, map_id, key, value, *args) -> int:
        try:
            _state(vm).map_update(int(map_id), int(key), int(value))
        except KeyError as exc:
            raise HelperError(str(exc)) from exc
        return 0

    def map_lookup(vm, map_id, key, *args) -> int:
        try:
            value = _state(vm).map_lookup(int(map_id), int(key))
        except KeyError as exc:
            raise HelperError(str(exc)) from exc
        return MAP_NO_ENTRY if value is None else value

    def map_lookup_idx(vm, map_id, key, index, *args) -> int:
        try:
            value = _state(vm).map_lookup(int(map_id), int(key), int(index))
        except KeyError as exc:
            raise HelperError(str(exc)) from exc
        return MAP_NO_ENTRY if value is None else value

    def map_size(vm, map_id, *args) -> int:
        try:
            return _state(vm).map_size(int(map_id))
        except KeyError as exc:
            raise HelperError(str(exc)) from exc

    # -- arithmetic -----------------------------------------------------------------

    def sqrt64(vm, value, *args) -> int:
        return math.isqrt(int(value))

    table.register(ids["next"], "next", helper_next)
    table.register(ids["get_arg"], "get_arg", get_arg)
    table.register(ids["get_peer_info"], "get_peer_info", get_peer_info)
    table.register(ids["get_attr"], "get_attr", get_attr)
    table.register(ids["set_attr"], "set_attr", set_attr)
    table.register(ids["add_attr"], "add_attr", add_attr)
    table.register(ids["remove_attr"], "remove_attr", remove_attr)
    table.register(ids["get_nexthop"], "get_nexthop", get_nexthop)
    table.register(ids["get_xtra"], "get_xtra", get_xtra)
    table.register(ids["write_buf"], "write_buf", write_buf)
    table.register(ids["ebpf_memcpy"], "ebpf_memcpy", ebpf_memcpy)
    table.register(ids["ebpf_print"], "ebpf_print", ebpf_print)
    table.register(ids["ctx_malloc"], "ctx_malloc", ctx_malloc)
    table.register(ids["ctx_shmnew"], "ctx_shmnew", ctx_shmnew)
    table.register(ids["ctx_shmget"], "ctx_shmget", ctx_shmget)
    table.register(ids["rib_announce"], "rib_announce", rib_announce)
    table.register(ids["get_prefix"], "get_prefix", get_prefix)
    table.register(ids["get_src_peer_info"], "get_src_peer_info", get_src_peer_info)
    table.register(ids["map_new"], "map_new", map_new)
    table.register(ids["map_update"], "map_update", map_update)
    table.register(ids["map_lookup"], "map_lookup", map_lookup)
    table.register(ids["map_lookup_idx"], "map_lookup_idx", map_lookup_idx)
    table.register(ids["map_size"], "map_size", map_size)
    table.register(ids["sqrt64"], "sqrt64", sqrt64)
    return table
