"""Corpus persistence: minimized divergences as JSON regression seeds.

An entry is fully self-describing — frames/programs are stored as hex,
so replaying it never re-runs the generator.  ``tests/fuzz_corpus/``
holds the checked-in entries; ``tests/integration/
test_fuzz_regressions.py`` replays every one of them in tier-1.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterator, Optional

from ..bgp.prefix import Prefix
from ..bgp.roa import Roa
from .gen import CodecCase, EngineCase, HostCase
from .oracles import Divergence, run_codec_case, run_engine_case, run_host_case

__all__ = [
    "CORPUS_VERSION",
    "case_to_dict",
    "case_from_dict",
    "entry_for",
    "entry_filename",
    "save_entry",
    "load_entry",
    "iter_entries",
    "replay_entry",
]

CORPUS_VERSION = 1

_ORACLES = {
    "codec": run_codec_case,
    "engine": run_engine_case,
    "host": run_host_case,
}


def case_to_dict(case) -> Dict[str, object]:
    if isinstance(case, CodecCase):
        return {
            "kind": "codec",
            "frames": [frame.hex() for frame in case.frames],
            "mutated": case.mutated,
            "chunks": list(case.chunks),
        }
    if isinstance(case, EngineCase):
        return {
            "kind": "engine",
            "program": case.program.hex(),
            "inputs": list(case.inputs),
            "step_budget": case.step_budget,
            "source": case.source,
            "shared_writable": case.shared_writable,
        }
    if isinstance(case, HostCase):
        events = []
        for event in case.events:
            if event[0] == "frame":
                events.append(["frame", event[1].hex(), *event[2:]])
            else:
                events.append(list(event))
        return {
            "kind": "host",
            "plugin": case.plugin,
            "session": case.session,
            "engine": case.engine,
            "events": events,
            "roas": [
                [roa.prefix.network, roa.prefix.length, roa.asn, roa.max_length]
                for roa in case.roas
            ],
            "coord": list(case.coord) if case.coord is not None else None,
        }
    raise TypeError(f"unknown case type {type(case).__name__}")


def case_from_dict(data: Dict[str, object], seed=None):
    kind = data["kind"]
    if kind == "codec":
        return CodecCase(
            seed,
            [bytes.fromhex(frame) for frame in data["frames"]],
            bool(data["mutated"]),
            [int(size) for size in data["chunks"]],
        )
    if kind == "engine":
        return EngineCase(
            seed,
            bytes.fromhex(data["program"]),
            [int(value) for value in data["inputs"]],
            int(data["step_budget"]),
            str(data.get("source", "")),
            bool(data.get("shared_writable", True)),
        )
    if kind == "host":
        events = []
        for event in data["events"]:
            if event[0] == "frame":
                events.append(("frame", bytes.fromhex(event[1]), *event[2:]))
            else:
                events.append(tuple(event))
        roas = [
            Roa(Prefix(int(network), int(length)), int(asn), int(max_length))
            for network, length, asn, max_length in data["roas"]
        ]
        coord = tuple(data["coord"]) if data.get("coord") is not None else None
        return HostCase(
            seed,
            data["plugin"],
            str(data["session"]),
            events,
            roas,
            coord,
            str(data.get("engine", "jit")),
        )
    raise ValueError(f"unknown case kind {kind!r}")


def entry_for(case, divergence: Divergence) -> Dict[str, object]:
    return {
        "version": CORPUS_VERSION,
        "oracle": divergence.oracle,
        "signature": divergence.signature,
        "detail": divergence.detail,
        "seed": case.seed,
        "case": case_to_dict(case),
    }


def entry_filename(entry: Dict[str, object]) -> str:
    digest = hashlib.sha1(str(entry["signature"]).encode()).hexdigest()[:10]
    return f"{entry['oracle']}-{digest}.json"


def save_entry(directory, entry: Dict[str, object]) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / entry_filename(entry)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_entry(path) -> Dict[str, object]:
    return json.loads(Path(path).read_text())


def iter_entries(directory) -> Iterator[Path]:
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        yield path


def replay_entry(entry: Dict[str, object]) -> Optional[Divergence]:
    """Re-run the recorded case through its oracle.

    Returns the (fresh) divergence, or None once the underlying bug is
    fixed — which is exactly what the regression test asserts.
    """
    case = case_from_dict(entry["case"], seed=entry.get("seed"))
    oracle = _ORACLES[str(entry["case"]["kind"])]
    return oracle(case)
