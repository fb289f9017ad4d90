"""Unit tests for the two hosts' internal representations."""

import pytest

from repro.bgp.attributes import (
    PathAttribute,
    make_as_path,
    make_communities,
    make_geoloc,
    make_local_pref,
    make_med,
    make_next_hop,
    make_origin,
    make_originator_id,
)
from repro.bgp.aspath import AsPath
from repro.bgp.constants import AttrTypeCode, Origin
from repro.bgp.prefix import Prefix
from repro.bird.daemon import BirdDaemon
from repro.bird.eattrs import Eattr, EattrList
from repro.bird.rib import BirdRoute
from repro.core.context import ExecutionContext
from repro.core.insertion_points import InsertionPoint
from repro.frr.attrs_intern import AttrPool, FrrAttrs


def sample_attrs():
    return [
        make_origin(Origin.IGP),
        make_as_path(AsPath.from_sequence([65001, 65002])),
        make_next_hop(0x0A000001),
        make_med(50),
        make_local_pref(200),
        make_communities([0x1234_0001]),
        make_originator_id(0x01010101),
        make_geoloc(1.5, -2.5),  # unknown to the host: raw carry
    ]


class TestEattrList:
    def test_from_wire_find(self):
        eattrs = EattrList.from_wire(sample_attrs())
        assert eattrs.ea_find(AttrTypeCode.ORIGIN).data == bytes([Origin.IGP])
        assert AttrTypeCode.GEOLOC in eattrs

    def test_set_and_unset(self):
        eattrs = EattrList()
        eattrs.ea_set(99, 0xC0, b"\x01")
        assert eattrs.ea_find(99) == Eattr(99, 0xC0, b"\x01")
        assert eattrs.ea_unset(99)
        assert not eattrs.ea_unset(99)

    def test_copy_is_independent(self):
        eattrs = EattrList.from_wire(sample_attrs())
        clone = eattrs.copy()
        clone.ea_unset(AttrTypeCode.ORIGIN)
        assert AttrTypeCode.ORIGIN in eattrs

    def test_to_path_attributes_roundtrip(self):
        original = sorted(sample_attrs(), key=lambda a: a.type_code)
        eattrs = EattrList.from_wire(original)
        assert eattrs.to_path_attributes() == original

    def test_cache_key_stable(self):
        a = EattrList.from_wire(sample_attrs())
        b = EattrList.from_wire(sample_attrs())
        assert a.cache_key() == b.cache_key()
        b.ea_set(99, 0, b"")
        assert a.cache_key() != b.cache_key()

    def test_iteration_sorted_by_code(self):
        eattrs = EattrList.from_wire(sample_attrs())
        codes = [e.code for e in eattrs]
        assert codes == sorted(codes)


class TestBirdParseOnce:
    """An attribute block is decoded once, however many routes, list
    copies and calls read it (the parsed value lives on the Eattr)."""

    def route(self, eattrs=None):
        eattrs = eattrs if eattrs is not None else EattrList.from_wire(sample_attrs())
        return BirdRoute(Prefix.parse("10.0.0.0/8"), None, eattrs)

    def test_accessors_return_the_memoised_object(self):
        route = self.route()
        assert route.as_path() is route.as_path()
        assert route.communities() is route.communities()
        assert route.as_path() == AsPath.from_sequence([65001, 65002])
        assert route.as_path_length() == 2 and route.origin_asn() == 65002
        assert route.path_contains(65001) and not route.path_contains(65003)

    def test_routes_and_copies_of_one_block_share_the_parsed_view(self):
        eattrs = EattrList.from_wire(sample_attrs())
        first, second = self.route(eattrs), self.route(eattrs)
        assert first.as_path() is second.as_path()
        assert first.with_eattrs(eattrs.copy()).as_path() is first.as_path()

    def test_a_write_is_visible_to_the_next_read(self):
        route = self.route()
        before_path, before_communities = route.as_path(), route.communities()
        path = make_as_path(AsPath.from_sequence([65009]))
        route.eattrs.ea_set(path.type_code, path.flags, path.value)
        communities = make_communities([0x1234_0002, 0x1234_0003])
        route.eattrs.ea_set(communities.type_code, communities.flags, communities.value)
        assert route.as_path() == AsPath.from_sequence([65009]) != before_path
        assert route.communities() == communities.as_communities() != before_communities
        assert route.as_path_length() == 1
        route.eattrs.ea_unset(AttrTypeCode.AS_PATH)
        assert route.as_path() == AsPath() and route.as_path_length() == 0

    def test_glue_set_attr_is_visible_and_leaves_siblings_alone(self):
        daemon = BirdDaemon(asn=65001, router_id="10.0.0.1")
        sibling = self.route()
        route = self.route(sibling.eattrs)
        assert route.as_path_length() == 2  # memoise before the write
        ctx = ExecutionContext(InsertionPoint.BGP_INBOUND_FILTER, route=route, prefix=route.prefix)
        path = make_as_path(AsPath.from_sequence([65007, 65008, 65009]))
        assert daemon.host.set_attr(ctx, path.type_code, path.flags, path.value)
        assert ctx.route.as_path() == AsPath.from_sequence([65007, 65008, 65009])
        assert ctx.route.as_path_length() == 3
        assert sibling.as_path_length() == 2

    def test_scalars_default_when_absent_or_malformed(self):
        bare = self.route(EattrList())
        assert (bare.local_pref(), bare.med(), bare.next_hop()) == (100, 0, 0)
        assert bare.origin() == Origin.INCOMPLETE
        assert bare.communities() == () and bare.cluster_list() == ()
        odd = EattrList()
        odd.ea_set(AttrTypeCode.LOCAL_PREF, 0x40, b"\x01")
        odd.ea_set(AttrTypeCode.MULTI_EXIT_DISC, 0x80, b"")
        assert (self.route(odd).local_pref(), self.route(odd).med()) == (100, 0)


class TestFrrAttrs:
    def test_from_wire_parses_host_order(self):
        attrs = FrrAttrs.from_wire(sample_attrs())
        assert attrs.origin == Origin.IGP
        assert attrs.as_path == ((2, (65001, 65002)),)
        assert attrs.next_hop == 0x0A000001
        assert attrs.med == 50
        assert attrs.local_pref == 200
        assert attrs.communities == frozenset({0x1234_0001})
        assert attrs.originator_id == 0x01010101
        assert attrs.extra[0][0] == AttrTypeCode.GEOLOC

    def test_to_wire_roundtrip(self):
        original = sorted(sample_attrs(), key=lambda a: a.type_code)
        assert FrrAttrs.from_wire(original).to_wire() == original

    def test_attr_to_wire_single(self):
        attrs = FrrAttrs.from_wire(sample_attrs())
        med = attrs.attr_to_wire(AttrTypeCode.MULTI_EXIT_DISC)
        assert med is not None and med.as_u32() == 50
        assert attrs.attr_to_wire(222) is None

    def test_with_attr_wire_known_code(self):
        attrs = FrrAttrs.from_wire(sample_attrs())
        updated = attrs.with_attr_wire(
            AttrTypeCode.LOCAL_PREF, 0x40, (500).to_bytes(4, "big")
        )
        assert updated.local_pref == 500
        assert attrs.local_pref == 200  # original untouched

    def test_with_attr_wire_unknown_code_goes_to_extra(self):
        attrs = FrrAttrs().with_attr_wire(222, 0xC0, b"\xab")
        assert (222, 0xC0, b"\xab") in attrs.extra

    def test_with_attr_wire_replaces_extra(self):
        attrs = FrrAttrs().with_attr_wire(222, 0xC0, b"\xab")
        attrs = attrs.with_attr_wire(222, 0xC0, b"\xcd")
        assert len(attrs.extra) == 1
        assert attrs.extra[0][2] == b"\xcd"

    def test_without_attr(self):
        attrs = FrrAttrs.from_wire(sample_attrs())
        updated, removed = attrs.without_attr(AttrTypeCode.MULTI_EXIT_DISC)
        assert removed and updated.med is None
        again, removed2 = updated.without_attr(AttrTypeCode.MULTI_EXIT_DISC)
        assert not removed2 and again is updated

    def test_without_extra_attr(self):
        attrs = FrrAttrs().with_attr_wire(222, 0xC0, b"\xab")
        updated, removed = attrs.without_attr(222)
        assert removed and not updated.extra

    def test_has_attr(self):
        attrs = FrrAttrs.from_wire(sample_attrs())
        assert attrs.has_attr(AttrTypeCode.GEOLOC)
        assert not attrs.has_attr(250)

    def test_equality_and_hash(self):
        a = FrrAttrs.from_wire(sample_attrs())
        b = FrrAttrs.from_wire(sample_attrs())
        assert a == b and hash(a) == hash(b)


class TestAttrPool:
    def test_interning_dedups(self):
        pool = AttrPool()
        a = pool.intern(FrrAttrs.from_wire(sample_attrs()))
        b = pool.intern(FrrAttrs.from_wire(sample_attrs()))
        assert a is b
        assert pool.hits == 1 and pool.misses == 1
        assert len(pool) == 1

    def test_distinct_sets_kept_apart(self):
        pool = AttrPool()
        a = pool.intern(FrrAttrs(origin=0))
        b = pool.intern(FrrAttrs(origin=1))
        assert a is not b
        assert len(pool) == 2
