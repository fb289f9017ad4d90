"""The block-purity bit of every shipped code.

A code is block-pure when its manifest lists only helpers that read
the peers' info, the attribute set and router-wide configuration, so
the VMM may run it once per attribute block instead of once per route.
The table pins the bit for every code the plugins ship.
"""

import pytest

from repro.bgp.prefix import Prefix
from repro.bgp.roa import Roa
from repro.core.vmm import block_pure
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

ROAS = [Roa(Prefix.parse("10.0.0.0/8"), 65100, 24)]

PROGRAMS = {
    "route_reflector": lambda: route_reflector.build_manifest().load(),
    "igp_filter": lambda: igp_filter.build_manifest().load(),
    "valley_free": lambda: valley_free.build_manifest([(1, 2)], [1, 2]).load(),
    "geoloc": lambda: geoloc.build_manifest(with_import_filter=True).load(),
    "faulty": lambda: faulty.build_manifest().load(),
    "origin_validation": lambda: origin_validation.build_manifest(ROAS).load(),
    "conditional_default": lambda: conditional_default.build_manifest(
        Prefix.parse("10.9.0.0/16")
    ).load(),
    "closest_exit": lambda: closest_exit.build_manifest().load(),
    "bad_gadget": lambda: bad_gadget.build_manifest().load(),
}

#: (program, code) -> block-pure?
TABLE = {
    ("route_reflector", "rr_import"): True,
    ("route_reflector", "rr_export"): True,
    ("igp_filter", "export_igp"): True,
    ("valley_free", "vf_import"): True,
    ("geoloc", "geoloc_receive"): True,
    ("geoloc", "geoloc_import"): True,
    ("geoloc", "geoloc_export"): True,
    ("geoloc", "geoloc_encode"): False,  # write_buf
    ("faulty", "crash"): True,  # calls nothing; its faults are never memoised
    ("origin_validation", "rov_import"): False,  # get_arg, ctx_shm*
    ("conditional_default", "watch_trigger"): False,  # get_arg, rib_announce
    ("closest_exit", "prefer_closest"): False,  # get_arg
    ("bad_gadget", "prefer_gadget"): False,  # get_arg
}


def test_the_table_covers_every_shipped_code():
    shipped = {
        (name, code.name) for name, build in PROGRAMS.items() for code in build().codes
    }
    assert shipped == set(TABLE)


@pytest.mark.parametrize("program,code", sorted(TABLE))
def test_block_pure_bit(program, code):
    built = PROGRAMS[program]()
    (found,) = [each for each in built.codes if each.name == code]
    assert block_pure(found, built) is TABLE[program, code]


def test_a_map_writer_in_the_program_disqualifies_map_reads():
    built = valley_free.build_manifest([(1, 2)], [1, 2]).load()
    (code,) = built.codes
    assert block_pure(code, built)
    code.helper_names.append("map_update")
    assert not block_pure(code, built)
