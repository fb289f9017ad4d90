"""Execution contexts for xBGP API calls.

§2.1: "Each API function is called with a context of execution.  This
context is hidden within the extension code but visible in the host BGP
implementation."  The context tells helper implementations which host,
peer, route or message the bytecode is operating on and carries the
*hidden arguments* the host passed when reaching the insertion point.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..bgp.peer import Neighbor
from ..bgp.prefix import Prefix
from .insertion_points import InsertionPoint

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """Everything one insertion-point invocation exposes to helpers.

    Which fields are populated depends on the insertion point:

    ================== ==============================================
    point               populated fields
    ================== ==============================================
    RECEIVE_MESSAGE     neighbor, message, route (being built)
    INBOUND_FILTER      neighbor, route, prefix
    DECISION            prefix, route (candidate), best_route
    OUTBOUND_FILTER     neighbor, route, prefix
    ENCODE_MESSAGE      neighbor, route, prefix, out_buffer
    ================== ==============================================

    ``hidden`` carries host-private arguments that helper glue may use
    but that are invisible to the extension code (the paper's RIB
    example) — e.g. PyBIRD notes there that a run's writes already went
    copy-on-write.

    A host builds one context per UPDATE vector, sweep or selection and
    :meth:`rebind` s it to each route, which resets everything one run
    may leave behind.
    """

    __slots__ = (
        "insertion_point",
        "neighbor",
        "route",
        "best_route",
        "prefix",
        "message",
        "out_buffer",
        "hidden",
        "error",
        "faulted_extension",
        "span",
    )

    def __init__(
        self,
        insertion_point: InsertionPoint,
        neighbor: Optional[Neighbor] = None,
        route: Any = None,
        best_route: Any = None,
        prefix: Optional[Prefix] = None,
        message: Optional[bytes] = None,
        out_buffer: Optional[bytearray] = None,
        hidden: Optional[Dict[str, Any]] = None,
    ):
        self.insertion_point = insertion_point
        self.neighbor = neighbor
        self.route = route
        self.best_route = best_route
        self.prefix = prefix
        self.message = message
        self.out_buffer = out_buffer
        self.hidden = hidden or {}
        #: Human-readable "<extension>: <error>" set when a code aborts.
        self.error: Optional[str] = None
        #: Name of the extension code that faulted mid-chain, so hosts
        #: and traces can attribute the failure without parsing
        #: ``error``'s flattened string.
        self.faulted_extension: Optional[str] = None
        #: (trace, span) ref of the extension run currently executing
        #: against this context — set by the VMM when the host's
        #: provenance tracker is on, None otherwise.  Helpers and glue
        #: can use it to tie their own records into the causal chain.
        self.span = None

    def rebind(self, route: Any, prefix: Optional[Prefix], best_route: Any = None) -> None:
        """Point the context at the next route, as if it were new: the
        per-route fields take the given values, and what a run wrote
        (``hidden``, ``error``, ``faulted_extension``, ``span``) is
        cleared."""
        self.route = route
        self.prefix = prefix
        self.best_route = best_route
        if self.hidden:
            self.hidden = {}
        self.error = self.faulted_extension = self.span = None

    def __repr__(self) -> str:
        return (
            f"ExecutionContext({self.insertion_point.name}, "
            f"peer={self.neighbor!r}, prefix={self.prefix})"
        )
