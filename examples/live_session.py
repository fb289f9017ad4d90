#!/usr/bin/env python3
"""Live TCP interop: two daemons speak real BGP over sockets.

A PyFRR and a PyBIRD daemon establish an actual RFC 4271 session over
localhost TCP — FSM, OPEN/KEEPALIVE negotiation, UPDATE exchange — with
the GeoLoc xBGP program loaded on the PyFRR side.  The simulator is
bypassed entirely; this is the :mod:`repro.net` transport.
"""

import asyncio

from repro.bgp import Prefix
from repro.bgp.constants import AttrTypeCode
from repro.bird import BirdDaemon
from repro.frr import FrrDaemon
from repro.net import TcpSpeaker
from repro.plugins import geoloc


async def run() -> None:
    # Same AS: an iBGP session, so GeoLoc may travel.
    frr = FrrDaemon(
        asn=65001,
        router_id="1.1.1.1",
        xtra={"coord": geoloc.coord_bytes(47.3769, 8.5417)},  # Zürich
    )
    frr.attach_manifest(geoloc.build_manifest())
    bird = BirdDaemon(asn=65001, router_id="2.2.2.2")

    frr_speaker = TcpSpeaker(frr, port=11790)
    bird_speaker = TcpSpeaker(bird, port=11791)
    # Each side addresses its peer by router id.
    frr_speaker.register_neighbor("2.2.2.2", 65001)
    bird_speaker.register_neighbor("1.1.1.1", 65001)

    await bird_speaker.listen()
    session = await frr_speaker.connect("2.2.2.2", "127.0.0.1", 11791)
    await asyncio.wait_for(session.established.wait(), timeout=5)
    print("session Established over real TCP")

    # A locally-learned route with a GeoLoc attribute (stamped on
    # origination by hand here; an eBGP feeder would trigger the
    # receive bytecode instead).
    prefix = Prefix.parse("203.0.113.0/24")
    from repro.bgp.attributes import make_as_path, make_geoloc, make_next_hop, make_origin
    from repro.bgp.aspath import AsPath
    from repro.bgp.constants import Origin

    frr.originate(
        prefix,
        attributes=[
            make_origin(Origin.IGP),
            make_as_path(AsPath()),
            make_next_hop(frr.local_address),
            make_geoloc(47.3769, 8.5417),
        ],
    )

    for _ in range(50):
        await asyncio.sleep(0.1)
        route = bird.loc_rib.lookup(prefix)
        if route is not None:
            break
    assert route is not None, "route did not arrive over TCP"
    attribute = route.attribute(AttrTypeCode.GEOLOC)
    assert attribute is not None, "GeoLoc did not survive the wire"
    print(f"{prefix} received by PyBIRD over TCP with {attribute!r}")

    await frr_speaker.close()
    await bird_speaker.close()


def main() -> None:
    asyncio.run(run())


if __name__ == "__main__":
    main()
