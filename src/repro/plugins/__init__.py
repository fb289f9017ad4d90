"""The paper's use cases as xBGP programs (xc sources + manifests).

* :mod:`repro.plugins.geoloc` — §2, GeoLoc attribute, 4 bytecodes;
* :mod:`repro.plugins.igp_filter` — §3.1, IGP-cost export filter
  (Listing 1);
* :mod:`repro.plugins.route_reflector` — §3.2, RFC 4456 as extension
  code;
* :mod:`repro.plugins.valley_free` — §3.3, data-center valley
  filtering;
* :mod:`repro.plugins.origin_validation` — §3.4, RPKI origin
  validation with a hash map;
* :mod:`repro.plugins.closest_exit` — our extension: GeoLoc-based
  tie-breaking on the BGP_DECISION insertion point;
* :mod:`repro.plugins.conditional_default` — our extension: a default
  route originated through ``rib_announce`` while a trigger prefix is
  received;
* :mod:`repro.plugins.faulty` — a deliberately crashing filter for
  fault-injection drills (the seeded quarantine workload);
* :mod:`repro.plugins.bad_gadget` — a deliberately divergent decision
  policy, the oscillation detector's true positive.

Every program is eBPF bytecode, the one kind of extension code the VMM
runs; the *same* manifest loads into PyFRR and PyBIRD.
"""

from . import (
    closest_exit,
    conditional_default,
    faulty,
    geoloc,
    igp_filter,
    origin_validation,
    route_reflector,
    valley_free,
)

__all__ = [
    "closest_exit",
    "conditional_default",
    "faulty",
    "geoloc",
    "igp_filter",
    "origin_validation",
    "route_reflector",
    "valley_free",
]
