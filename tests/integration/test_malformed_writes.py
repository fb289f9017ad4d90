"""Integration: PyFRR refuses a wrong-size write to a fixed-size field.

A verified inbound-filter bytecode writes a value of the wrong size to
one of PyFRR's fixed-size fields (NEXT_HOP, MED, ORIGINATOR_ID of 3
bytes; LOCAL_PREF of 2).  The host's one field parser refuses it:
``set_attr`` returns 0, nothing escapes ``receive_message``, and the
route is imported unchanged.  The bytecode rejects the route if the
write was taken, so a Loc-RIB hit proves the refusal.  Both tiers.
"""

import pytest

from repro.bgp import Prefix
from repro.bgp.aspath import AsPath
from repro.bgp.attributes import make_as_path, make_next_hop, make_origin
from repro.bgp.constants import AttrTypeCode, Origin
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import parse_ipv4
from repro.core import Manifest
from repro.core.vmm import VmmConfig
from repro.frr import FrrDaemon

PEER = "10.0.0.9"
PREFIX = Prefix.parse("10.1.0.0/16")

WRITER = """
u64 writer(u64 args) {
    u8 buf[8];
    *(u64 *)(buf) = 0;
    if (set_attr(%(code)d, %(flags)d, buf, %(length)d) != 0) {
        return FILTER_REJECT;
    }
    next();
}
"""

WRITES = [
    (AttrTypeCode.NEXT_HOP, 0x40, 3),
    (AttrTypeCode.MULTI_EXIT_DISC, 0x80, 3),
    (AttrTypeCode.ORIGINATOR_ID, 0x80, 3),
    (AttrTypeCode.LOCAL_PREF, 0x40, 2),
]


@pytest.mark.parametrize("tier", ["jit", "interp"])
@pytest.mark.parametrize(
    "code, flags, length", WRITES, ids=[f"{code.name}-{length}" for code, _, length in WRITES]
)
def test_wrong_size_write_is_refused(tier, code, flags, length):
    daemon = FrrDaemon(asn=65001, router_id="1.1.1.1", vmm_config=VmmConfig(tier=tier))
    daemon.add_neighbor(PEER, 65001, lambda data: None)
    daemon._established[parse_ipv4(PEER)] = True
    daemon.attach_manifest(
        Manifest(
            name="writer",
            codes=[
                {
                    "name": "writer",
                    "insertion_point": "BGP_INBOUND_FILTER",
                    "helpers": ["set_attr", "next"],
                    "source": WRITER % {"code": code, "flags": flags, "length": length},
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
        nlri=[PREFIX],
    )
    daemon.receive_message(PEER, update)
    route = daemon.loc_rib.lookup(PREFIX)
    assert route is not None, "the write was taken, or the route was lost"
    assert route.attrs.extra == ()
    assert route.next_hop() == parse_ipv4(PEER)
    assert daemon.vmm.stats()["writer"]["executions"] == 1
    assert daemon.vmm.fallbacks == 0
