"""The xBGP API: helper implementations shared by every host.

The helpers of one extension code are bound when it is attached: each
is a closure over that code's VM memory, its program's
:class:`~repro.core.extension.ProgramState` and the
:class:`HostImplementation` glue, so a call reads nothing per call but
the :class:`ExecutionContext` the VMM put on the VM.  All BGP payload
bytes cross this boundary in network byte order (the neutral
representation); struct headers use little-endian fields per the eBPF
load convention.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from ..bgp.prefix import Prefix, PrefixDecodeError
from ..ebpf.helpers import HelperError, HelperTable
from ..ebpf.memory import VmMemory
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
from .extension import ProgramState
from .host_interface import HostImplementation

__all__ = ["build_helper_table"]


def build_helper_table(
    names: Iterable[str], memory: VmMemory, state: ProgramState, host: HostImplementation
) -> HelperTable:
    """The xBGP helpers ``names`` (a manifest's list) of one VM, bound
    to its ``memory``, its program's ``state`` and the ``host`` glue.

    Every helper takes the VM and the five argument registers, which
    reach it as u64 ints, so nothing is cast.  The
    host's provenance tracker is captured as it is now: the VMM binds
    the table again whenever it is toggled (``rebind_all``).  Raises
    KeyError on a name the API does not define.
    """
    table = HelperTable()
    ids = HELPER_IDS
    alloc = memory.alloc_bytes
    read = memory.read_bytes
    maps = state.maps
    shm_offsets = state.shm_offsets
    shm_base = state.shared.base
    prov = host.provenance

    def table_of(map_id):
        found = maps.get(map_id)
        if found is None:
            raise HelperError(f"no map {map_id}")
        return found

    # -- control flow ---------------------------------------------------

    def helper_next(vm, r1, r2, r3, r4, r5) -> int:
        """Terminal: the engine ends the run after the call."""
        return 0

    # -- argument / peer access ------------------------------------------

    def get_arg(vm, arg_id, r2, r3, r4, r5) -> int:
        ctx = vm.ctx
        payload: Optional[bytes] = None
        if arg_id == ARG_MESSAGE:
            payload = ctx.message
        elif arg_id == ARG_PREFIX:
            payload = ctx.prefix.encode() if ctx.prefix is not None else None
        elif arg_id == ARG_ROUTE_NEW and ctx.route is not None:
            payload = host.encode_route_attributes(ctx, ctx.route)
        elif arg_id == ARG_ROUTE_BEST and ctx.best_route is not None:
            payload = host.encode_route_attributes(ctx, ctx.best_route)
        if payload is None:
            return 0
        return alloc(pack_arg(payload))

    def get_peer_info(vm, r1, r2, r3, r4, r5) -> int:
        neighbor = vm.ctx.neighbor
        if neighbor is None:
            return 0
        return alloc(pack_peer_info(neighbor))

    def get_prefix(vm, r1, r2, r3, r4, r5) -> int:
        prefix = vm.ctx.prefix
        if prefix is None:
            return 0
        return alloc(pack_arg(prefix.encode()))

    def get_src_peer_info(vm, r1, r2, r3, r4, r5) -> int:
        """Peer info of the neighbor the route in scope was *learned
        from* (on export, ``get_peer_info`` reports the destination)."""
        ctx = vm.ctx
        source = getattr(ctx.route, "source", None)
        if source is None:
            source = ctx.hidden.get("source")
        if source is None:
            return 0
        return alloc(pack_peer_info(source))

    # -- attribute access -------------------------------------------------

    def get_attr(vm, code, r2, r3, r4, r5) -> int:
        ctx = vm.ctx
        packed = host.get_attr_packed(ctx, code)
        if prov is not None:
            prov.record_api(ctx, "get_attr", code=code, found=packed is not None)
        if packed is None:
            return 0
        return alloc(packed)

    def set_attr(vm, code, flags, data_ptr, length, r5) -> int:
        ctx = vm.ctx
        value = read(data_ptr, length) if length else b""
        ok = host.set_attr(ctx, code, flags, value)
        if prov is not None:
            prov.record_api(ctx, "set_attr", code=code, value=value, ok=ok)
        return 1 if ok else 0

    def add_attr(vm, code, flags, data_ptr, length, r5) -> int:
        ctx = vm.ctx
        value = read(data_ptr, length) if length else b""
        ok = host.add_attr(ctx, code, flags, value)
        if prov is not None:
            prov.record_api(ctx, "add_attr", code=code, value=value, ok=ok)
        return 1 if ok else 0

    def remove_attr(vm, code, r2, r3, r4, r5) -> int:
        ctx = vm.ctx
        ok = host.remove_attr(ctx, code)
        if prov is not None:
            prov.record_api(ctx, "remove_attr", code=code, ok=ok)
        return 1 if ok else 0

    # -- topology / configuration -------------------------------------------

    def get_nexthop(vm, r1, r2, r3, r4, r5) -> int:
        ctx = vm.ctx
        address, metric, reachable = host.get_nexthop(ctx)
        if prov is not None:
            prov.record_api(
                ctx, "get_nexthop", address=address, metric=metric, reachable=reachable
            )
        return alloc(pack_nexthop_info(address, metric, reachable))

    def get_xtra(vm, key_ptr, r2, r3, r4, r5) -> int:
        key = memory.read_cstring(key_ptr).decode("ascii", "replace")
        value = host.get_xtra(vm.ctx, key)
        if value is None:
            return 0
        return alloc(pack_arg(value))

    # -- output ------------------------------------------------------------

    def write_buf(vm, data_ptr, length, r3, r4, r5) -> int:
        ctx = vm.ctx
        if ctx.out_buffer is None:
            raise HelperError("write_buf outside BGP_ENCODE_MESSAGE")
        if length:
            ctx.out_buffer.extend(read(data_ptr, length))
        if prov is not None:
            prov.record_api(ctx, "write_buf", length=length)
        return length

    # -- memory utilities -----------------------------------------------------

    def ebpf_memcpy(vm, dst, src, length, r4, r5) -> int:
        if length:
            memory.write_bytes(dst, read(src, length))
        return dst

    def ebpf_print(vm, str_ptr, r2, r3, r4, r5) -> int:
        text = memory.read_cstring(str_ptr).decode("ascii", "replace")
        host.log(f"[xbgp] {text}")
        return 0

    def ctx_malloc(vm, size, r2, r3, r4, r5) -> int:
        return memory.alloc(size)

    def ctx_shmnew(vm, key, size, r3, r4, r5) -> int:
        return state.shm_new(key, size)

    def ctx_shmget(vm, key, r2, r3, r4, r5) -> int:
        offset = shm_offsets.get(key)
        return 0 if offset is None else shm_base + offset

    # -- RIB -------------------------------------------------------------------

    def rib_announce(vm, prefix_ptr, next_hop, r3, r4, r5) -> int:
        ctx = vm.ctx
        header = read(prefix_ptr, 1)
        nbytes = (header[0] + 7) // 8
        raw = read(prefix_ptr, 1 + nbytes)
        try:
            prefix, _ = Prefix.decode(raw)
        except PrefixDecodeError as exc:
            raise HelperError(f"rib_announce: {exc}") from exc
        ok = host.rib_announce(ctx, prefix, next_hop)
        if prov is not None:
            prov.record_api(ctx, "rib_announce", prefix=str(prefix), ok=ok)
        return 1 if ok else 0

    # -- maps --------------------------------------------------------------------

    def map_new(vm, r1, r2, r3, r4, r5) -> int:
        return state.map_new()

    def map_update(vm, map_id, key, value, r4, r5) -> int:
        table_of(map_id).setdefault(key, []).append(value)
        return 0

    def map_lookup(vm, map_id, key, r3, r4, r5) -> int:
        return map_lookup_idx(vm, map_id, key, 0, r4, r5)

    def map_lookup_idx(vm, map_id, key, index, r4, r5) -> int:
        found = maps.get(map_id)  # table_of inlined: a per-route helper
        if found is None:
            raise HelperError(f"no map {map_id}")
        values = found.get(key)
        if values is None or index >= len(values):
            return MAP_NO_ENTRY
        return values[index]

    def map_size(vm, map_id, r2, r3, r4, r5) -> int:
        return len(table_of(map_id))

    # -- arithmetic -----------------------------------------------------------------

    def sqrt64(vm, value, r2, r3, r4, r5) -> int:
        return math.isqrt(value)

    table.register(ids["next"], "next", helper_next, terminal=True)
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
    return table.restricted(names)
