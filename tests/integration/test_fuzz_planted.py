"""End-to-end check that the fuzzer actually catches bugs.

Plants a deliberate cache-invalidation bug — ``Neighbor.__setattr__``
keeps the stale ``pack_peer_info`` memo across field writes, so the
helpers serve outdated peer-info bytes — and asserts the host oracle's
RFC 4271 reference catches it, ddmin shrinks the event stream, and the
persisted corpus entry reproduces the divergence (with the plant) and
replays clean (without it).  This is the acceptance test for the whole
find → dedup → minimize → persist → replay loop.
"""

from pathlib import Path

import pytest

from repro.bgp.peer import Neighbor
from repro.fuzz.corpus import iter_entries, load_entry, replay_entry
from repro.fuzz.runner import FuzzRunner

PLANT_SIGNATURE = "host:reference:frr:attributes:route_reflector"
#: The checked-in witness of this bug (see tests/fuzz_corpus/README.md).
WITNESS = Path(__file__).resolve().parent.parent / "fuzz_corpus" / "host-8a8e0ac165.json"


@pytest.fixture
def stale_peer_cache(monkeypatch):
    """Sabotage Neighbor's write-invalidation of the peer-info memo."""
    original = Neighbor.__setattr__

    def broken(self, name, value):
        packed = getattr(self, "_packed_info", None)
        original(self, name, value)
        if name != "_packed_info" and packed is not None:
            object.__setattr__(self, "_packed_info", packed)

    monkeypatch.setattr(Neighbor, "__setattr__", broken)


def _campaign(corpus_dir):
    return FuzzRunner(
        seed=2,
        iterations=6,
        oracles=("host",),
        corpus_dir=corpus_dir,
        minimize=True,
        max_minimize_calls=60,
    ).run()


def test_planted_divergence_is_caught_minimized_and_reproducible(
    stale_peer_cache, tmp_path
):
    report = _campaign(tmp_path)

    assert not report["clean"]
    signatures = [d["signature"] for d in report["divergences"]]
    assert PLANT_SIGNATURE in signatures
    finding = next(d for d in report["divergences"] if d["signature"] == PLANT_SIGNATURE)
    # ddmin shrank the event stream (9 events at generation time).
    assert finding["minimized_length"] < finding["original_length"]

    # The persisted entry reproduces the same divergence while the
    # plant is active...
    paths = list(iter_entries(tmp_path))
    assert paths
    entry = load_entry(next(p for p in paths if p.name == finding["corpus_file"].split("/")[-1]))
    replayed = replay_entry(entry)
    assert replayed is not None
    assert replayed.signature == PLANT_SIGNATURE


def test_planted_entry_replays_clean_without_plant(stale_peer_cache, tmp_path, monkeypatch):
    report = _campaign(tmp_path)
    finding = next(d for d in report["divergences"] if d["signature"] == PLANT_SIGNATURE)
    path = next(
        p for p in iter_entries(tmp_path) if p.name == finding["corpus_file"].split("/")[-1]
    )
    entry = load_entry(path)
    # Heal the plant: replay on the real implementation must be clean —
    # exactly the contract the checked-in corpus relies on.
    monkeypatch.undo()
    assert replay_entry(entry) is None


def test_the_checked_in_witness_still_sees_the_plant(stale_peer_cache):
    divergence = replay_entry(load_entry(WITNESS))
    assert divergence is not None and divergence.signature == PLANT_SIGNATURE


def test_clean_campaign_without_plant():
    # Same seed and budget, unbroken tree: the campaign reports clean,
    # i.e. the finding above is the plant's doing, not background noise.
    report = FuzzRunner(seed=2, iterations=6, oracles=("host",)).run()
    assert report["clean"]
    assert report["iterations_run"] == 6
