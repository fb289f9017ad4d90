"""Differential fuzzing & conformance subsystem.

The repo runs one bytecode three ways and one RFC 4271 pipeline on two
hosts with its caches on or off; the paper's §2.1 claim is that the
*same* bytecode behaves identically on FRR and BIRD.  Each gives the
fuzzer a free oracle:

* **codec** — decode → re-encode round trips (lazy verbatim re-encode
  vs eager attribute rebuild, plus stream-reassembly determinism);
* **engine** — generated programs on the reference interpreter, the
  compiled tier, and the compiler's dispatch-only form called
  directly: same result, helper-call sequence, step counts and heap
  image, and on every arm a second back-to-back run equal to the first
  (the lazily zeroed heap must hide what the first run left behind);
* **host** — the same plugin manifest on FRR and BIRD over the same
  event stream → identical Loc-RIB and export sets, each host also
  against itself with ``hot_path=False`` (host caches off: wire bytes
  and stats must match bit for bit), batched and sharded.

:mod:`repro.fuzz.gen` produces the seeded-random inputs,
:mod:`repro.fuzz.oracles` runs the comparisons,
:mod:`repro.fuzz.runner` drives campaigns (dedup + ddmin minimisation),
and :mod:`repro.fuzz.corpus` persists minimized divergences as JSON
regression seeds under ``tests/fuzz_corpus/``.
"""

from .gen import CodecCase, EngineCase, HostCase, gen_codec_case, gen_engine_case, gen_host_case
from .oracles import Divergence, run_codec_case, run_engine_case, run_host_case
from .corpus import load_entry, replay_entry, save_entry
from .runner import FuzzRunner

__all__ = [
    "CodecCase",
    "EngineCase",
    "HostCase",
    "Divergence",
    "FuzzRunner",
    "gen_codec_case",
    "gen_engine_case",
    "gen_host_case",
    "run_codec_case",
    "run_engine_case",
    "run_host_case",
    "save_entry",
    "load_entry",
    "replay_entry",
]
