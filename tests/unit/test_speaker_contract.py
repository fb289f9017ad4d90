"""The RFC 4271 pipeline exists once: hosts supply representation only.

A hot-path, batching or telemetry change belongs in
:class:`repro.bgp.speaker.BgpSpeaker`.  These checks fail when a host
module grows a pipeline method of its own again.
"""

import inspect

import pytest

from repro.bgp.speaker import BgpSpeaker
from repro.bird.daemon import BirdDaemon
from repro.frr.daemon import FrrDaemon

#: Everything both daemons have in common, by name.
SHARED = [
    "__init__",
    "enable_profiling",
    "disable_profiling",
    "enable_provenance",
    "disable_provenance",
    "add_neighbor",
    "session_up",
    "session_down",
    "attach_program",
    "attach_manifest",
    "update_telemetry_gauges",
    "originate",
    "withdraw_local",
    "receive_raw",
    "receive_message",
    "_receive",
    "process_update_batch",
    "_import_route",
    "_native_import",
    "_process_route_refresh",
    "_sweep",
    "_select_best",
    "_run_decision",
    "_export_prefix",
    "_send_table",
    "_export_to",
    "_export_filter",
    "_native_export",
    "_export_route",
    "_withdraw_from",
    "_flush_bulk_export",
    "_send_packed",
    "_send_update",
    "_send_raw",
    "loc_rib_snapshot",
]

#: The host contract (see the BgpSpeaker module docstring).
HOOKS = {
    "implementation",
    "route_class",
    "host_class",
    "receive_isolates_writes",
    "_init_representation",
    "_decode_attrs",
    "_receive_container",
    "_received_attrs",
    "_validate_origin",
    "_stamp_reflection",
    "_export_rewrite",
    "_share_attrs",
}


@pytest.mark.parametrize("name", SHARED)
def test_pipeline_method_is_shared(name):
    shared = getattr(BgpSpeaker, name)
    assert getattr(FrrDaemon, name) is shared
    assert getattr(BirdDaemon, name) is shared


@pytest.mark.parametrize("host", [FrrDaemon, BirdDaemon], ids=["frr", "bird"])
def test_hooks_take_the_contract_arguments(host):
    def arity(function):
        return len(inspect.signature(function).parameters)

    for name in HOOKS:
        hook = vars(host).get(name)
        if inspect.isfunction(hook):
            assert arity(hook) == arity(getattr(BgpSpeaker, name)), name


@pytest.mark.parametrize("host", [FrrDaemon, BirdDaemon], ids=["frr", "bird"])
def test_host_defines_only_contract_hooks(host):
    defined = {
        name
        for name in vars(host)
        if not (name.startswith("__") and name.endswith("__"))
    }
    assert defined <= HOOKS, f"outside the host contract: {sorted(defined - HOOKS)}"


def test_no_method_body_in_both_hosts():
    def bodies(host):
        return {
            (code.co_code, code.co_consts, code.co_names)
            for code in (
                member.__code__
                for member in vars(host).values()
                if inspect.isfunction(member)
            )
        }

    assert not bodies(FrrDaemon) & bodies(BirdDaemon)

