"""Integration: real TCP sessions via the asyncio transport."""

import asyncio

import pytest

from repro.bgp import Prefix
from repro.bgp.attributes import make_as_path, make_next_hop, make_origin
from repro.bgp.aspath import AsPath
from repro.bgp.constants import Origin
from repro.bird import BirdDaemon
from repro.frr import FrrDaemon
from repro.net import TcpSpeaker

PREFIX = Prefix.parse("203.0.113.0/24")


async def _wait_for(predicate, timeout=5.0):
    deadline = asyncio.get_event_loop().time() + timeout
    while asyncio.get_event_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.02)
    return False


async def _pair(port_a, port_b, asn_a=65001, asn_b=65001):
    a = FrrDaemon(asn=asn_a, router_id="1.1.1.1")
    b = BirdDaemon(asn=asn_b, router_id="2.2.2.2")
    speaker_a = TcpSpeaker(a, port=port_a)
    speaker_b = TcpSpeaker(b, port=port_b)
    speaker_a.register_neighbor("2.2.2.2", asn_b)
    speaker_b.register_neighbor("1.1.1.1", asn_a)
    await speaker_b.listen()
    session = await speaker_a.connect("2.2.2.2", "127.0.0.1", port_b)
    await asyncio.wait_for(session.established.wait(), timeout=5)
    return a, b, speaker_a, speaker_b, session


class TestLiveSessions:
    def test_establishment_and_update_exchange(self):
        async def scenario():
            a, b, speaker_a, speaker_b, session = await _pair(11801, 11802)
            try:
                a.originate(
                    PREFIX,
                    attributes=[
                        make_origin(Origin.IGP),
                        make_as_path(AsPath()),
                        make_next_hop(a.local_address),
                    ],
                )
                assert await _wait_for(lambda: b.loc_rib.lookup(PREFIX) is not None)
            finally:
                await speaker_a.close()
                await speaker_b.close()

        asyncio.run(scenario())

    def test_withdrawal_over_tcp(self):
        async def scenario():
            a, b, speaker_a, speaker_b, session = await _pair(11803, 11804)
            try:
                a.originate(PREFIX)
                assert await _wait_for(lambda: b.loc_rib.lookup(PREFIX) is not None)
                a.withdraw_local(PREFIX)
                assert await _wait_for(lambda: b.loc_rib.lookup(PREFIX) is None)
            finally:
                await speaker_a.close()
                await speaker_b.close()

        asyncio.run(scenario())

    def test_ebgp_session_prepends_as(self):
        async def scenario():
            a, b, speaker_a, speaker_b, session = await _pair(
                11805, 11806, asn_a=65001, asn_b=65002
            )
            try:
                a.originate(PREFIX)
                assert await _wait_for(lambda: b.loc_rib.lookup(PREFIX) is not None)
                route = b.loc_rib.lookup(PREFIX)
                assert list(route.as_path().asn_iter()) == [65001]
            finally:
                await speaker_a.close()
                await speaker_b.close()

        asyncio.run(scenario())

    def test_session_down_on_close(self):
        async def scenario():
            a, b, speaker_a, speaker_b, session = await _pair(11807, 11808)
            try:
                a.originate(PREFIX)
                assert await _wait_for(lambda: b.loc_rib.lookup(PREFIX) is not None)
                await speaker_a.close()
                # The passive side notices the hangup and flushes.
                assert await _wait_for(lambda: b.loc_rib.lookup(PREFIX) is None)
            finally:
                await speaker_b.close()

        asyncio.run(scenario())
