"""Seeded input generation, parent side.

Everything a trial consumes is made here, once, from ``--seed``: the
pre-encoded UPDATE bytes (or the MRT file) the program will see, and
the generator's own model of what the program must hold afterwards.
The same seed gives byte-identical feeds; the program never sees the
seed or a ``RouteSpec`` (except the sharded workload, whose documented
input is the MRT file it parses itself).
"""

from __future__ import annotations

import hashlib
import os
import random
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bgp.constants import RouteOriginValidity
from repro.bgp.messages import UpdateMessage
from repro.bgp.prefix import Prefix, parse_ipv4
from repro.bgp.roa import HashRoaTable, make_roas_for_prefixes
from repro.mrt import MrtPeer, RibEntry, write_table
from repro.workload import RibGenerator, RouteSpec, build_updates, origins_of

from names import ROUTES, SHRINK

__all__ = [
    "UPSTREAM",
    "SECOND_UPSTREAM",
    "Inputs",
    "Phase",
    "generate",
    "feed_sha256",
]

#: Addresses ``build_scale_daemon`` wires (trials check them against
#: ``daemon.neighbors`` before the first byte, so a rewiring fails loudly).
UPSTREAM = "10.0.1.2"
UPSTREAM_ASN = 65100
#: The churn workload's second eBGP upstream, added by the trial itself.
SECOND_UPSTREAM = "10.0.3.2"
SECOND_UPSTREAM_ASN = 65300

class Phase(NamedTuple):
    name: str
    upstream: str
    feed: List[bytes]
    events: int  # prefixes announced or withdrawn by this phase


class Inputs(NamedTuple):
    name: str
    #: Denominator of every per-route metric: prefix events offered
    #: (announcements + withdrawals).
    routes: int
    #: Distinct prefixes the Loc-RIB and the downstream must hold.
    prefixes: int
    #: ``build_scale_daemon`` config, or ``ShardedReplay`` keyword
    #: arguments for the sharded workload.  Only the keys the issue
    #: allows: a knob the repo deletes later must not break this file.
    config: Dict[str, object]
    expect: Dict[str, object]
    gen_s: float
    phases: Tuple[Phase, ...] = ()
    second_upstream: Optional[Tuple[str, int]] = None
    mrt_path: Optional[str] = None


def _size(name: str) -> int:
    return max(64, ROUTES[name] // SHRINK)


def _encode(updates: Sequence[UpdateMessage], end_of_rib: bool = True) -> List[bytes]:
    feed = [update.encode() for update in updates]
    if end_of_rib:
        feed.append(UpdateMessage.end_of_rib().encode())
    return feed


def _route_reflection(seed: int) -> Dict[str, Inputs]:
    """One iBGP feed, two DUTs: the pair shares the very same bytes."""
    started = perf_counter()
    count = _size("rr-ext-frr")
    routes = RibGenerator(n_routes=count, seed=seed).generate()
    feed = _encode(
        build_updates(routes, next_hop=parse_ipv4(UPSTREAM), session="ibgp")
    )
    phases = (Phase("announce", UPSTREAM, feed, count),)
    expect = {"prefixes": frozenset(spec.prefix for spec in routes)}
    gen_s = perf_counter() - started
    return {
        name: Inputs(
            name,
            routes=count,
            prefixes=count,
            config={
                "implementation": "frr",
                "feature": "route_reflection",
                "mode": mode,
                "roas": [],
            },
            expect=expect,
            gen_s=gen_s,
            phases=phases,
        )
        for name, mode in (("rr-ext-frr", "extension"), ("rr-native-frr", "native"))
    }


def _origin_validation(seed: int) -> Dict[str, Inputs]:
    started = perf_counter()
    count = _size("ov-ext-bird")
    routes = RibGenerator(n_routes=count, seed=seed).generate()
    pairs = origins_of(routes)
    roas = make_roas_for_prefixes(pairs, valid_fraction=0.75, seed=seed)
    feed = _encode(
        build_updates(
            routes,
            next_hop=parse_ipv4(UPSTREAM),
            session="ebgp",
            sender_asn=UPSTREAM_ASN,
        )
    )
    # The benchmark's own validation of the same (prefix, origin) pairs.
    table = HashRoaTable()
    table.extend(roas)
    split = {validity.name: 0 for validity in RouteOriginValidity}
    for prefix, origin in pairs:
        split[table.validate(prefix, origin).name] += 1
    expect = {
        "prefixes": frozenset(spec.prefix for spec in routes),
        "validity": split,
        "pairs": pairs,
    }
    gen_s = perf_counter() - started
    return {
        "ov-ext-bird": Inputs(
            "ov-ext-bird",
            routes=count,
            prefixes=count,
            config={
                "implementation": "bird",
                "feature": "origin_validation",
                "mode": "extension",
                "roas": roas,
            },
            expect=expect,
            gen_s=gen_s,
            phases=(Phase("announce", UPSTREAM, feed, count),),
        )
    }


def _churn(seed: int) -> Dict[str, Inputs]:
    """Two upstreams contest every prefix, then A withdraws and replaces.

    B's AS path is A's plus or minus one hop, so AS-path length alone
    decides every contest (LOCAL_PREF is equal, MED is not compared
    across neighbour ASes) and the generator can say who must win.
    """
    started = perf_counter()
    count = _size("churn-native-bird")
    routes = RibGenerator(n_routes=count, seed=seed).generate()
    rng = random.Random(f"{seed}:churn")

    b_routes: List[RouteSpec] = []
    b_shorter: Dict[Prefix, bool] = {}
    for spec in routes:
        shorter = rng.random() < 0.5 and len(spec.as_path) >= 2
        path = spec.as_path[1:] if shorter else (spec.as_path[0],) + spec.as_path
        b_routes.append(spec._replace(as_path=path))
        b_shorter[spec.prefix] = shorter
    withdrawn = rng.sample(routes, count // 2)
    replaced = [
        spec._replace(med=(spec.med or 0) + 1 + rng.randrange(50))
        for spec in rng.sample(routes, count // 4)
    ]

    def ebgp(specs: Sequence[RouteSpec], address: str, asn: int) -> List[UpdateMessage]:
        return build_updates(
            specs, next_hop=parse_ipv4(address), session="ebgp", sender_asn=asn
        )

    withdrawals = [
        UpdateMessage(withdrawn=[spec.prefix for spec in withdrawn[start : start + 64]])
        for start in range(0, len(withdrawn), 64)
    ]
    phases = (
        Phase("announce", UPSTREAM, _encode(ebgp(routes, UPSTREAM, UPSTREAM_ASN)), count),
        Phase(
            "contest", SECOND_UPSTREAM,
            _encode(ebgp(b_routes, SECOND_UPSTREAM, SECOND_UPSTREAM_ASN)), count,
        ),
        Phase("withdraw", UPSTREAM, _encode(withdrawals, end_of_rib=False), len(withdrawn)),
        Phase(
            "replace", UPSTREAM,
            _encode(ebgp(replaced, UPSTREAM, UPSTREAM_ASN), end_of_rib=False),
            len(replaced),
        ),
    )

    a_absent = {spec.prefix for spec in withdrawn} - {spec.prefix for spec in replaced}
    winners = {
        prefix: SECOND_UPSTREAM_ASN
        if shorter or prefix in a_absent
        else UPSTREAM_ASN
        for prefix, shorter in b_shorter.items()
    }
    expect = {"prefixes": frozenset(winners), "winners": winners}
    gen_s = perf_counter() - started
    return {
        "churn-native-bird": Inputs(
            "churn-native-bird",
            routes=sum(phase.events for phase in phases),
            prefixes=count,
            config={"implementation": "bird", "feature": "plain", "mode": "native", "roas": []},
            expect=expect,
            gen_s=gen_s,
            phases=phases,
            second_upstream=(SECOND_UPSTREAM, SECOND_UPSTREAM_ASN),
        )
    }


def _full_table(seed: int, workdir: str) -> Dict[str, Inputs]:
    """An MRT TABLE_DUMP_V2 file, written the way ``xbgp gen-table`` does."""
    started = perf_counter()
    count = _size("full-table-sharded")
    routes = RibGenerator(n_routes=count, seed=seed).generate()
    peer = parse_ipv4("10.0.0.9")
    updates = build_updates(
        routes, next_hop=peer, session="ebgp", sender_asn=UPSTREAM_ASN
    )
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"table-{seed}-{count}.mrt")
    with open(path, "wb") as handle:
        write_table(
            handle,
            [MrtPeer(peer, peer, UPSTREAM_ASN)],
            (
                RibEntry(prefix, 0, 0, update.attributes)
                for update in updates
                for prefix in update.nlri
            ),
        )
    gen_s = perf_counter() - started
    return {
        "full-table-sharded": Inputs(
            "full-table-sharded",
            routes=count,
            prefixes=count,
            config={
                "feature": "plain",
                "mode": "native",
                "shards": 2,  # fixed; never read from nproc
                "batch": 64,
                "collect": "summary",
            },
            expect={},
            gen_s=gen_s,
            mrt_path=path,
        )
    }


def generate(names: Sequence[str], seed: int, workdir: str) -> Dict[str, Inputs]:
    """Inputs for ``names`` (a sibling pair is generated together)."""
    wanted = set(names)
    inputs: Dict[str, Inputs] = {}
    if wanted & {"rr-ext-frr", "rr-native-frr"}:
        inputs.update(_route_reflection(seed))
    if "ov-ext-bird" in wanted:
        inputs.update(_origin_validation(seed))
    if "churn-native-bird" in wanted:
        inputs.update(_churn(seed))
    if "full-table-sharded" in wanted:
        inputs.update(_full_table(seed, workdir))
    return inputs


def feed_sha256(inputs: Inputs) -> str:
    """Digest of every byte the program will be offered."""
    digest = hashlib.sha256()
    for phase in inputs.phases:
        digest.update(phase.name.encode())
        for payload in phase.feed:
            digest.update(payload)
    if inputs.mrt_path is not None:
        with open(inputs.mrt_path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()
