"""Property tests: the hot-path marshalling caches invalidate correctly.

The fast path memoises marshalled helper structs in three places —
``Neighbor._packed_info`` (peer_info), FRR's per-``FrrAttrs``
``_packed_cache`` / ``_write_cache``, and BIRD's per-``Eattr``
``_packed`` memo plus the ``EattrList`` write/identity caches.  Each
cache is only sound if any mutation of the underlying object produces
fresh bytes; these tests mutate after a pack and assert the
re-marshalled bytes change (and match a freshly packed struct).
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import PathAttribute
from repro.bgp.constants import AttrTypeCode
from repro.bgp.peer import Neighbor
from repro.bird.eattrs import Eattr, EattrList
from repro.core.abi import pack_attr, pack_peer_info
from repro.frr.attrs_intern import AttrPool, FrrAttrs

# -- strategies ---------------------------------------------------------

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
asns = st.integers(min_value=1, max_value=0xFFFFFFFF)
attr_values = st.binary(min_size=4, max_size=4)

# Fields of Neighbor that pack_peer_info marshals into the peer struct.
_PACKED_FIELDS = (
    "peer_asn",
    "local_asn",
    "peer_address",
    "local_address",
    "peer_router_id",
    "local_router_id",
    "rr_client",
    "cluster_id",
)


def _fresh_peer_info(neighbor):
    """The peer struct packed from the neighbor's fields right now."""
    return struct.pack(
        "<9I",
        int(neighbor.session_type),
        neighbor.peer_asn,
        neighbor.peer_router_id,
        neighbor.local_asn,
        neighbor.local_router_id,
        neighbor.peer_address,
        neighbor.local_address,
        1 if neighbor.rr_client else 0,
        neighbor.cluster_id,
    )


def _neighbor(peer_asn, local_asn, peer_addr, local_addr):
    return Neighbor(
        peer_address=peer_addr or 1,
        peer_asn=peer_asn,
        local_address=local_addr or 2,
        local_asn=local_asn,
        peer_router_id=peer_addr or 1,
        local_router_id=local_addr or 2,
    )


# -- Neighbor / pack_peer_info ------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    peer_asn=asns,
    local_asn=asns,
    peer_addr=u32,
    local_addr=u32,
    field=st.sampled_from(_PACKED_FIELDS),
    delta=st.integers(min_value=1, max_value=0xFFFF),
)
def test_neighbor_mutation_invalidates_packed_info(
    peer_asn, local_asn, peer_addr, local_addr, field, delta
):
    neighbor = _neighbor(peer_asn, local_asn, peer_addr, local_addr)
    packed = pack_peer_info(neighbor)
    # The memo is filled and a second cached pack returns identical bytes.
    assert neighbor._packed_info == packed
    assert pack_peer_info(neighbor) == packed
    assert _fresh_peer_info(neighbor) == packed

    old = getattr(neighbor, field)
    if field == "rr_client":
        new = not old
    else:
        new = (old + delta) & 0xFFFFFFFF
        if new == old:
            new = (old + 1) & 0xFFFFFFFF
    setattr(neighbor, field, new)

    # __setattr__ dropped the memo, and the repack reflects the new
    # field value.
    assert neighbor._packed_info is None
    repacked = pack_peer_info(neighbor)
    assert repacked == _fresh_peer_info(neighbor)
    assert repacked != packed


@settings(max_examples=25, deadline=None)
@given(peer_asn=asns, local_asn=asns)
def test_neighbor_stale_cache_would_diverge(peer_asn, local_asn):
    # After a mutation the memo must serve what a fresh pack of the
    # fields gives — i.e. a cache that survived the write would be
    # observable.
    neighbor = _neighbor(peer_asn, local_asn, 0x0A000102, 0x0A000101)
    stale = pack_peer_info(neighbor)
    neighbor.rr_client = True
    neighbor.cluster_id = 0xC1C1C1C1
    assert pack_peer_info(neighbor) == _fresh_peer_info(neighbor)
    assert pack_peer_info(neighbor) != stale


# -- FRR: FrrAttrs interning + per-set packed/write caches ---------------


def _frr_attrs(med: int) -> FrrAttrs:
    return FrrAttrs.from_wire(
        [
            PathAttribute(0x40, int(AttrTypeCode.ORIGIN), b"\x00"),
            PathAttribute(
                0x80, int(AttrTypeCode.MULTI_EXIT_DISC), struct.pack("!I", med)
            ),
        ]
    )


def _glue_pack(attrs: FrrAttrs, code: int) -> bytes:
    """Mirror of FrrHost.get_attr_packed's hot-path memoisation."""
    cached = attrs._packed_cache.get(code)
    if cached is not None:
        return cached
    attribute = attrs.attr_to_wire(code)
    assert attribute is not None
    packed = pack_attr(attribute.type_code, attribute.flags, attribute.value)
    attrs._packed_cache[code] = packed
    return packed


@settings(max_examples=50, deadline=None)
@given(med=u32, new_med=u32)
def test_frr_attr_write_yields_fresh_packed_bytes(med, new_med):
    if new_med == med:
        new_med = (med + 1) & 0xFFFFFFFF
    code = int(AttrTypeCode.MULTI_EXIT_DISC)
    attrs = _frr_attrs(med)
    packed = _glue_pack(attrs, code)
    assert attrs._packed_cache[code] == packed

    # FrrAttrs are immutable: a write goes through with_attr_wire and
    # must produce a *new* object with *empty* caches, never mutate the
    # shared (interned) one in place.
    written = attrs.with_attr_wire(code, 0x80, struct.pack("!I", new_med))
    assert written is not attrs
    assert written._packed_cache == {}
    assert attrs._packed_cache[code] == packed  # original memo untouched
    repacked = _glue_pack(written, code)
    assert repacked != packed
    assert repacked == pack_attr(code, 0x80, struct.pack("!I", new_med))


@settings(max_examples=25, deadline=None)
@given(med=u32, new_med=u32)
def test_frr_write_cache_matches_uncached_write(med, new_med):
    # Mirror of FrrHost.set_attr's hot path: the memoised interned
    # result for (code, flags, value) must equal a from-scratch rebuild.
    code = int(AttrTypeCode.MULTI_EXIT_DISC)
    pool = AttrPool()
    attrs = pool.intern(_frr_attrs(med))
    value = struct.pack("!I", new_med)

    interned = pool.intern(attrs.with_attr_wire(code, 0x80, value))
    attrs._write_cache[(code, 0x80, value)] = interned
    rebuilt = attrs.with_attr_wire(code, 0x80, value)
    assert attrs._write_cache[(code, 0x80, value)] == rebuilt
    # Interning the rebuild returns the cached object itself.
    assert pool.intern(rebuilt) is interned


# -- BIRD: Eattr._packed memo + EattrList write/identity caches ----------


@settings(max_examples=50, deadline=None)
@given(data=attr_values, new_data=attr_values, code=st.integers(16, 200))
def test_bird_ea_set_replaces_packed_memo(data, new_data, code):
    if new_data == data:
        new_data = bytes([data[0] ^ 1]) + data[1:]
    eattrs = EattrList.from_wire([PathAttribute(0xC0, code, data)])
    eattr = eattrs.ea_find(code)
    # Mirror of BirdHost.get_attr_packed's memo.
    eattr._packed = pack_attr(eattr.code, eattr.flags, eattr.data)
    stale = eattr._packed

    eattrs.ea_set(code, 0xC0, new_data)
    fresh = eattrs.ea_find(code)
    # ea_set replaces the whole Eattr, so the memo starts empty and the
    # re-marshalled bytes reflect the new data.
    assert fresh is not eattr
    assert fresh._packed is None
    repacked = pack_attr(fresh.code, fresh.flags, fresh.data)
    assert repacked != stale
    assert repacked == pack_attr(code, 0xC0, new_data)


@settings(max_examples=50, deadline=None)
@given(data=attr_values, new_data=attr_values, code=st.integers(16, 200))
def test_bird_ea_set_invalidates_list_caches(data, new_data, code):
    eattrs = EattrList.from_wire([PathAttribute(0xC0, code, data)])
    key = eattrs.cache_key()
    eattrs._write_cache[(code, 0xC0, new_data)] = eattrs.copy()

    eattrs.ea_set(code, 0xC0, new_data)
    # Identity and write-template caches are only valid for the old
    # content; both must be dropped by the in-place write.
    assert eattrs._write_cache == {}
    new_key = eattrs.cache_key()
    assert new_key == tuple((e.code, e.flags, e.data) for e in eattrs)
    if new_data != data:
        assert new_key != key


@settings(max_examples=25, deadline=None)
@given(data=attr_values, new_data=attr_values)
def test_bird_copy_shares_then_diverges(data, new_data):
    # copy() shares the identity/write caches (same content), but a
    # subsequent write on the copy swaps in fresh dicts instead of
    # clearing the shared ones — the original's caches stay valid.
    code = int(AttrTypeCode.MULTI_EXIT_DISC)
    base = EattrList.from_wire([PathAttribute(0x80, code, data)])
    base_key = base.cache_key()
    clone = base.copy()
    assert clone.cache_key() == base_key
    assert clone._write_cache is base._write_cache

    clone.ea_set(code, 0x80, new_data)
    assert base.cache_key() == base_key
    assert clone._write_cache is not base._write_cache
    assert base.ea_find(code).data == data


def test_eattr_equality_ignores_packed_memo():
    a = Eattr(32, 0xC0, b"\x01\x02\x03\x04")
    b = Eattr(32, 0xC0, b"\x01\x02\x03\x04")
    a._packed = pack_attr(a.code, a.flags, a.data)
    assert a == b and hash(a) == hash(b)
