"""§2.1 LoC accounting: the glue each host needed.

The paper: "Implementing the API induced a total of 400 and 589
additional lines of code on BIRD and FRRouting, respectively.  The
difference between the two is due to the internal representation of
the BGP data structures in memory."

This module counts the equivalent lines in this repo — the xBGP glue
module of each host plus, for PyFRR, the representation-conversion
functions the glue depends on (``FrrAttrs.parse_field`` and friends),
which is exactly the extra work the paper attributes to FRRouting.
Absolute counts differ from C, but the claim under test is the
*asymmetry*: FRR glue > BIRD glue.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Dict, List

__all__ = ["count_module_loc", "count_function_loc", "glue_report", "render_table"]

#: FrrAttrs methods that exist purely to convert between the host
#: representation and the neutral one (the paper's "several functions
#: to do the conversion between the two representations"): the one
#: field parser and the one field encoder, the block-level callers the
#: UPDATE path uses, and the per-attribute ones the glue uses.
_FRR_CONVERSION_FUNCTIONS = [
    "parse_field",
    "from_tlvs",
    "from_wire",
    "encode_field",
    "wire_tlvs",
    "to_wire",
    "attr_to_wire",
    "with_attr_wire",
    "without_attr",
]


def _code_lines(source: str) -> int:
    """Non-blank, non-comment, non-docstring source lines."""
    tree = ast.parse(source)
    doc_lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(
                body[0].value, ast.Constant
            ) and isinstance(body[0].value.value, str):
                for line in range(body[0].lineno, (body[0].end_lineno or body[0].lineno) + 1):
                    doc_lines.add(line)
    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or number in doc_lines:
            continue
        count += 1
    return count


def count_module_loc(module) -> int:
    """Code lines of a module (imports excluded are *not* — the glue's
    imports are part of the glue)."""
    return _code_lines(inspect.getsource(module))


def count_function_loc(cls, names: List[str]) -> int:
    """Code lines across the named methods of ``cls``."""
    total = 0
    for name in names:
        source = textwrap.dedent(inspect.getsource(getattr(cls, name)))
        total += _code_lines(source)
    return total


def glue_report() -> Dict[str, int]:
    """LoC each host needed to become xBGP-compliant."""
    from ..bird import xbgp_glue as bird_glue
    from ..frr import xbgp_glue as frr_glue
    from ..frr.attrs_intern import FrrAttrs

    bird_total = count_module_loc(bird_glue)
    frr_total = count_module_loc(frr_glue) + count_function_loc(
        FrrAttrs, _FRR_CONVERSION_FUNCTIONS
    )
    return {"bird": bird_total, "frr": frr_total}


def render_table() -> str:
    report = glue_report()
    lines = [
        "xBGP glue size per host (cf. paper §2.1: BIRD 400, FRRouting 589)",
        "",
        f"{'host':8s} {'glue LoC':>9s}",
    ]
    for host in ("bird", "frr"):
        lines.append(f"{host:8s} {report[host]:9d}")
    ratio = report["frr"] / report["bird"]
    lines.append("")
    lines.append(
        f"FRR/BIRD ratio = {ratio:.2f} (paper: {589 / 400:.2f}); the asymmetry "
        "comes from FRR-style host-order internals needing per-call conversion."
    )
    return "\n".join(lines)
