"""libxbgp: the vendor-neutral xBGP layer.

Public surface:

* :class:`InsertionPoint` — where extension codes attach;
* :class:`ExecutionContext` — what one invocation can see;
* :class:`HostImplementation` — what a BGP daemon implements to become
  xBGP-compliant;
* :class:`VirtualMachineManager` — loads manifests, verifies bytecode,
  executes chains with ``next()`` semantics and native fallback;
* :class:`Manifest` / :class:`XbgpProgram` / :class:`ExtensionCode` —
  the deployment artifacts;
* :data:`HELPER_IDS` / :data:`PLUGIN_CONSTANTS` — the ABI.
"""

from .abi import FILTER_ACCEPT, FILTER_REJECT, HELPER_IDS, MAP_NO_ENTRY, PLUGIN_CONSTANTS
from .api import build_helper_table
from .context import ExecutionContext
from .extension import ExtensionCode, ProgramState, XbgpProgram
from .host_interface import HostImplementation
from .insertion_points import InsertionPoint
from .manifest import Manifest, ManifestError
from .vmm import AttachError, VirtualMachineManager, VmmConfig

__all__ = [
    "FILTER_ACCEPT",
    "FILTER_REJECT",
    "HELPER_IDS",
    "MAP_NO_ENTRY",
    "PLUGIN_CONSTANTS",
    "build_helper_table",
    "ExecutionContext",
    "ExtensionCode",
    "ProgramState",
    "XbgpProgram",
    "HostImplementation",
    "InsertionPoint",
    "Manifest",
    "ManifestError",
    "AttachError",
    "VirtualMachineManager",
    "VmmConfig",
]
