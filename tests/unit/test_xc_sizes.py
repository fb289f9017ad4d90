"""The static size of every shipped xc code, pinned exactly.

These are counts of compiler output, the way the ``xbgp loc`` CI step
pins the glue sizes: a codegen change that moves one moves it on
purpose, and updates this table with the reason in EXPERIMENTS.md.
Programs whose source takes compile-time constants are built with the
arguments below (a wide constant costs an ``lddw`` slot more).
"""

from repro.bgp.prefix import Prefix
from repro.plugins import (
    bad_gadget,
    closest_exit,
    conditional_default,
    faulty,
    geoloc,
    igp_filter,
    origin_validation,
    route_reflector,
    valley_free,
)

#: Instruction slots (``lddw`` counts two) per extension code.
SIZES = {
    "prefer_gadget": 297,
    "prefer_closest": 328,
    "watch_trigger": 72,
    "crash": 5,
    "geoloc_receive": 45,
    "geoloc_import": 121,
    "geoloc_export": 19,
    "geoloc_encode": 51,
    "export_igp": 23,  # the paper's Listing 1
    "rov_import": 188,
    "rr_import": 56,
    "rr_export": 93,
    "vf_import": 109,
}


def test_every_shipped_code_compiles_to_its_pinned_size():
    manifests = [
        bad_gadget.build_manifest(),
        closest_exit.build_manifest(),
        conditional_default.build_manifest(Prefix.parse("10.0.0.0/8")),
        faulty.build_manifest(),
        geoloc.build_manifest(),
        igp_filter.build_manifest(),
        origin_validation.build_manifest([]),
        route_reflector.build_manifest(),
        valley_free.build_manifest([(1, 2)], [1, 2]),
    ]
    sizes = {
        code.name: len(code.instructions)
        for manifest in manifests
        for code in manifest.load().codes
    }
    assert sizes == SIZES
