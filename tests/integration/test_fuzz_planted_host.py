"""What the host oracle can see: planted single-fault mutants.

``test_fuzz_planted.py`` follows one planted bug through the whole
find → minimise → persist → replay loop; this file scores the host
oracle the way ``test_fuzz_planted_engine.py`` scores the engine
oracle, and the way BGPFuzz judges a fuzzer — by seeded faults found.
Each mutant changes one token of a function the host oracle executes
(the speaker's import, export and flush paths, the decision ladder,
both hosts' export rewrites, route accessors and xBGP glue, the
peer-info memo, the helper table, the block-purity proof and the
block memo's key and lifetime): the function's source is
re-compiled with the edit and monkeypatched in, and a host campaign of
at most ``CASES`` cases must report a divergence.  The same cases on
the unmutated tree must stay clean.

``python tests/integration/test_fuzz_planted_host.py`` prints, for
every mutant, which oracle arms caught it over all ``CASES`` cases —
the k/N-per-arm record EXPERIMENTS.md quotes.  The block-memo mutants
need a tree that has the block memo; the others only touch names that
exist on both sides of the change that introduced them.
"""

import inspect
import sys
import textwrap

import pytest

from repro.bgp import decision, speaker
from repro.bgp.peer import Neighbor
from repro.bird import daemon as bird_daemon
from repro.bird import xbgp_glue as bird_glue
from repro.bird.rib import BirdRoute
from repro.core import abi, api, vmm
from repro.frr import daemon as frr_daemon
from repro.frr import xbgp_glue as frr_glue
from repro.fuzz import gen_host_case, run_host_case

CASES = 60  # the bound every mutant must be killed within
SEED = 1

Speaker = speaker.BgpSpeaker


def _edit(monkeypatch, owner, name, old, new):
    """Replace ``old`` by ``new`` (exactly one occurrence) in the source
    of ``owner.name`` and patch the recompiled function in."""
    function = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, f"{name}: {old!r} occurs {source.count(old)}x"
    scope = {}
    module = sys.modules[function.__module__]
    exec(compile(source.replace(old, new), f"<mutant {name}>", "exec"), vars(module), scope)
    monkeypatch.setattr(owner, name, scope[name])


# -- the peer-info memo and the helper layer -------------------------------


def peer_info_memo_survives_a_field_write(monkeypatch):
    _edit(
        monkeypatch, Neighbor, "__setattr__",
        'if name != "_packed_info":', 'if not hasattr(self, "_packed_info"):',
    )


def peer_info_reports_no_rr_client(monkeypatch):
    _edit(monkeypatch, abi, "pack_peer_info", "1 if neighbor.rr_client else 0,", "0,")
    monkeypatch.setattr(api, "pack_peer_info", abi.pack_peer_info)


def src_peer_info_packs_the_target_peer(monkeypatch):
    _edit(
        monkeypatch, api, "build_helper_table",
        'source = getattr(ctx.route, "source", None)', "source = ctx.neighbor",
    )
    monkeypatch.setattr(vmm, "build_helper_table", api.build_helper_table)


def frr_write_cache_ignores_the_value(monkeypatch):
    _edit(monkeypatch, frr_glue.FrrHost, "set_attr", "key = (code, flags, value)", "key = (code, flags)")


def bird_template_cache_ignores_the_value(monkeypatch):
    _edit(monkeypatch, bird_glue.BirdHost, "set_attr", "key = (code, flags, value)", "key = (code, flags)")


def bird_glue_writes_a_shared_list_in_place(monkeypatch):
    _edit(
        monkeypatch, bird_glue.BirdHost, "_eattrs",
        'if for_write and not ctx.hidden.get("cow"):', "if False:",
    )


# -- the speaker ------------------------------------------------------------


def withdrawals_leave_the_decision_stale(monkeypatch):
    _edit(
        monkeypatch, Speaker, "process_update_batch",
        "if withdraw(peer_address, prefix) is not None:",
        "if withdraw(peer_address, prefix) is None:",
    )


def routes_echo_back_to_their_source(monkeypatch):
    _edit(
        monkeypatch, Speaker, "_export_to",
        "if best.source is not None and best.source.peer_address == address:", "if False:",
    )


def adj_rib_out_records_the_unrewritten_route(monkeypatch):
    _edit(
        monkeypatch, Speaker, "_export_to",
        "self.adj_rib_out.advertise(address, sent)",
        "self.adj_rib_out.advertise(address, export_route)",
    )


def export_memo_key_ignores_the_target_session(monkeypatch):
    _edit(monkeypatch, Speaker, "_export_route", "neighbor.session_type is _EBGP,", "")


def encode_extension_bytes_dropped(monkeypatch):
    _edit(monkeypatch, Speaker, "_export_route", "blob += bytes(out_buffer)", "pass")


def withdrawals_never_flushed(monkeypatch):
    _edit(
        monkeypatch, Speaker, "_flush_bulk_export",
        "for peer_address, prefixes in wd.items():", "for peer_address, prefixes in ():",
    )


# -- the block memo ---------------------------------------------------------


def rov_import_classified_block_pure(monkeypatch):
    _edit(
        monkeypatch, vmm, "block_pure",
        "return allowed.issuperset(code.helper_names)", "return True",
    )


def block_memo_key_drops_the_source(monkeypatch):
    _edit(
        monkeypatch, Speaker, "_export_filter",
        "(route.attrs_key(), route.source, neighbor)", "(route.attrs_key(), neighbor)",
    )


def block_memo_key_drops_the_target(monkeypatch):
    _edit(
        monkeypatch, Speaker, "_export_filter",
        "(route.attrs_key(), route.source, neighbor)", "(route.attrs_key(), route.source)",
    )


def block_memo_outlives_its_sweep(monkeypatch):
    _edit(
        monkeypatch, Speaker, "_sweep",
        "memo = BlockMemo(self._share_attrs)",
        'memo = self.__dict__.setdefault("_memo", BlockMemo(self._share_attrs))',
    )


# -- the decision ladder ----------------------------------------------------


def ladder_prefers_the_longer_as_path(monkeypatch):
    _edit(
        monkeypatch, decision, "compare_routes",
        "return a.as_path_length() - b.as_path_length()",
        "return b.as_path_length() - a.as_path_length()",
    )


def ladder_prefers_the_higher_origin(monkeypatch):
    _edit(
        monkeypatch, decision, "compare_routes",
        "return a.origin() - b.origin()", "return b.origin() - a.origin()",
    )


def bird_missing_med_counts_as_worst(monkeypatch):
    _edit(monkeypatch, BirdRoute, "med", "_u32_or_0, 0)", "_u32_or_0, 0xFFFFFFFF)")


# -- the hosts' export rewrites ----------------------------------------------


def bird_rewrite_keeps_med_towards_ebgp(monkeypatch):
    _edit(
        monkeypatch, bird_daemon.BirdDaemon, "_export_rewrite",
        "eattrs.ea_unset(AttrTypeCode.MULTI_EXIT_DISC)", "pass",
    )


def bird_rewrite_adds_no_local_pref_towards_ibgp(monkeypatch):
    _edit(
        monkeypatch, bird_daemon.BirdDaemon, "_export_rewrite",
        "if AttrTypeCode.LOCAL_PREF not in eattrs:", "if False:",
    )


def frr_rewrite_always_opens_a_new_as_sequence(monkeypatch):
    _edit(
        monkeypatch, frr_daemon.FrrDaemon, "_export_rewrite",
        "if path and path[0][0] == 2:", "if False:",
    )


def frr_rewrite_ignores_next_hop_self(monkeypatch):
    _edit(
        monkeypatch, frr_daemon.FrrDaemon, "_export_rewrite",
        "if self.nexthop_self and source_ebgp:", "if False:",
    )


MUTANTS = (
    peer_info_memo_survives_a_field_write,
    peer_info_reports_no_rr_client,
    src_peer_info_packs_the_target_peer,
    frr_write_cache_ignores_the_value,
    bird_template_cache_ignores_the_value,
    bird_glue_writes_a_shared_list_in_place,
    withdrawals_leave_the_decision_stale,
    routes_echo_back_to_their_source,
    adj_rib_out_records_the_unrewritten_route,
    export_memo_key_ignores_the_target_session,
    encode_extension_bytes_dropped,
    withdrawals_never_flushed,
    rov_import_classified_block_pure,
    block_memo_key_drops_the_source,
    block_memo_key_drops_the_target,
    block_memo_outlives_its_sweep,
    ladder_prefers_the_longer_as_path,
    ladder_prefers_the_higher_origin,
    bird_missing_med_counts_as_worst,
    bird_rewrite_keeps_med_towards_ebgp,
    bird_rewrite_adds_no_local_pref_towards_ibgp,
    frr_rewrite_always_opens_a_new_as_sequence,
    frr_rewrite_ignores_next_hop_self,
)


def _signatures(stop_at_first_kill):
    """Divergence signatures over ≤ CASES host cases."""
    found = set()
    for index in range(CASES):
        divergence = run_host_case(gen_host_case(SEED * 1_000_003 + index))
        if divergence is not None:
            found.add(divergence.signature)
            if stop_at_first_kill:
                break
    return found


@pytest.mark.parametrize("plant", MUTANTS, ids=lambda plant: plant.__name__)
def test_planted_host_mutant_is_killed(plant, monkeypatch):
    plant(monkeypatch)
    assert _signatures(stop_at_first_kill=True), f"{plant.__name__} survived {CASES} cases"


def test_the_same_campaign_is_clean_without_a_plant():
    assert _signatures(stop_at_first_kill=False) == set()


def _arm(signature):
    """The oracle arm a divergence signature blames (``host:<arm>:…``)."""
    return "crash" if ":crash:" in signature else signature.split(":")[1]


if __name__ == "__main__":
    per_arm = {}
    killed = 0
    for plant in MUTANTS:
        with pytest.MonkeyPatch.context() as patch:
            plant(patch)
            arms = {_arm(signature) for signature in _signatures(stop_at_first_kill=False)}
        killed += bool(arms)
        for arm in arms:
            per_arm[arm] = per_arm.get(arm, 0) + 1
        print(f"{plant.__name__:<46} {'killed by ' + ', '.join(sorted(arms)) if arms else 'SURVIVED'}")
    print(f"killed {killed}/{len(MUTANTS)}; per arm: " + ", ".join(
        f"{arm} {count}/{len(MUTANTS)}" for arm, count in sorted(per_arm.items())
    ))
