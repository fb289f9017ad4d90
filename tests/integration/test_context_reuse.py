"""Integration: one ExecutionContext per UPDATE vector leaks nothing.

The speaker builds one context per vector and rebinds it to each route.
A run may leave state on it: PyBIRD's glue notes a copy-on-write in
``hidden["cow"]``, and a fault sets ``error`` and ``faulted_extension``.
Here route 1 of an UPDATE writes an attribute or faults, and a spy
that runs first at every route checks that route 2, in the same
UPDATE, starts from a clean context.  The spy is a bytecode that calls
``get_nexthop`` and delegates; the test wraps that helper's host glue
before attaching, so the wrapper sees the context each run starts
from.  Both hosts, provenance on and off.
"""

import pytest

from repro.bgp import Prefix
from repro.bgp.aspath import AsPath
from repro.bgp.attributes import make_as_path, make_next_hop, make_origin
from repro.bgp.constants import AttrTypeCode, Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import parse_ipv4
from repro.bird import BirdDaemon
from repro.core import Manifest
from repro.frr import FrrDaemon

PEER = "10.0.0.9"
FIRST = Prefix.parse("10.1.0.0/16")  # the route whose run leaves state
SECOND = Prefix.parse("10.2.2.0/24")

#: Stamps ORIGINATOR_ID on /16s (a copy-on-write on PyBIRD).
WRITER = """
u64 writer(u64 args) {
    u64 pfx = get_arg(ARG_PREFIX);
    if (*(u8 *)(pfx + 4) == 16) {
        u8 buf[4];
        *(u32 *)(buf) = htonl(0x01020304);
        set_attr(ATTR_ORIGINATOR_ID, FLAG_OPTIONAL, buf, 4);
    }
    next();
}
"""

#: Runs first at every route: one host call, then delegates.
SPY = """
u64 spy(u64 args) {
    get_nexthop();
    next();
}
"""

#: Dereferences NULL on /16s.
FAULTER = """
u64 faulter(u64 args) {
    u64 pfx = get_arg(ARG_PREFIX);
    if (*(u8 *)(pfx + 4) == 16) {
        return *(u64 *)(0);
    }
    next();
}
"""


def daemon_with(daemon_cls, name, source, helpers, provenance):
    daemon = daemon_cls(asn=65001, router_id="1.1.1.1", provenance=provenance)
    daemon.add_neighbor(PEER, 65100, lambda data: None)
    daemon._established[parse_ipv4(PEER)] = True
    seen = []
    get_nexthop = daemon.host.get_nexthop

    def spying_get_nexthop(ctx):
        seen.append(
            (ctx.prefix, ctx.route.prefix, dict(ctx.hidden), ctx.error, ctx.faulted_extension)
        )
        return get_nexthop(ctx)

    # Wrapped before anything attaches, so every spy run goes through it.
    daemon.host.get_nexthop = spying_get_nexthop
    for seq, (code, code_source, code_helpers) in enumerate(
        (("spy", SPY, ("get_nexthop", "next")), (name, source, helpers))
    ):
        daemon.attach_manifest(
            Manifest(
                name=code,
                codes=[
                    {
                        "name": code,
                        "insertion_point": "BGP_INBOUND_FILTER",
                        "seq": seq,
                        "helpers": list(code_helpers),
                        "source": code_source,
                    }
                ],
            )
        )
    update = UpdateMessage(
        attributes=[
            make_origin(Origin.IGP),
            make_as_path(AsPath.from_sequence([65100])),
            make_next_hop(parse_ipv4(PEER)),
        ],
        nlri=[FIRST, SECOND],
    )
    daemon.receive_message(PEER, update)
    return daemon, seen


def clean(prefix):
    return (prefix, prefix, {}, None, None)


@pytest.mark.parametrize("provenance", [False, True], ids=["plain", "provenance"])
@pytest.mark.parametrize("daemon_cls", [FrrDaemon, BirdDaemon], ids=["frr", "bird"])
class TestContextReuse:
    def test_a_write_on_route_one_stays_off_route_two(self, daemon_cls, provenance):
        daemon, seen = daemon_with(
            daemon_cls, "writer", WRITER, ("next", "get_arg", "set_attr"), provenance
        )
        assert seen == [clean(FIRST), clean(SECOND)]
        first = daemon.loc_rib.lookup(FIRST)
        second = daemon.loc_rib.lookup(SECOND)
        assert first.originator_id() == 0x01020304
        assert second.originator_id() is None
        assert daemon.vmm.stats()["writer"]["executions"] == 2

    def test_a_fault_on_route_one_stays_off_route_two(self, daemon_cls, provenance):
        daemon, seen = daemon_with(daemon_cls, "faulter", FAULTER, ("next", "get_arg"), provenance)
        assert seen == [clean(FIRST), clean(SECOND)]
        assert daemon.vmm.stats()["faulter"]["errors"] == 1
        # Both routes converge: route 1 natively after the fault.
        assert daemon.loc_rib.lookup(FIRST) is not None
        assert daemon.loc_rib.lookup(SECOND).attribute(AttrTypeCode.ORIGINATOR_ID) is None
