"""Differential fuzzing & conformance subsystem.

The repo runs one bytecode three ways and one RFC 4271 pipeline on two
hosts; the paper's §2.1 claim is that FRR and BIRD are the *same*
abstract BGP machine, so the same bytecode behaves identically on both.
Each gives the fuzzer an oracle:

* **codec** — decode → re-encode round trips (lazy verbatim re-encode
  vs eager attribute rebuild, plus stream-reassembly determinism);
* **engine** — generated programs on the reference interpreter, the
  compiled tier, and the compiler's dispatch-only form called
  directly: same result, helper-call sequence, step counts and heap
  image, and on every arm a second back-to-back run equal to the first
  (the lazily zeroed heap must hide what the first run left behind);
* **host** — the same plugin manifest on FRR and BIRD over the same
  event stream, each judged by :mod:`repro.fuzz.reference`, an
  independent executable model of that machine (dict RIBs, no caches,
  no packing, the plugins as plain Python): the downstream stream must
  frame cleanly and carry, prefix by prefix, the reference's attribute
  bytes and withdrawals, and Adj-RIB-Out and the Loc-RIB must equal
  its own; then each host's batched and sharded arms must equal its
  sequential one.

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
