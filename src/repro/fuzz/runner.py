"""Campaign driver: generate → oracle → dedup → minimize → persist.

Deterministic end to end: the master seed fixes every case (oracle
kinds rotate round-robin so a short budget still covers all three),
divergences are deduplicated by signature, and each *new* signature is
delta-debugged (classic ddmin over the frame/event stream) before its
corpus entry is written.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from .corpus import entry_for, save_entry
from .gen import (
    CodecCase,
    HostCase,
    gen_codec_case,
    gen_engine_case,
    gen_host_case,
)
from .oracles import Divergence, run_codec_case, run_engine_case, run_host_case

__all__ = ["FuzzRunner", "ddmin"]

_KINDS: Dict[str, tuple] = {
    "codec": (gen_codec_case, run_codec_case),
    "engine": (gen_engine_case, run_engine_case),
    "host": (gen_host_case, run_host_case),
}


def ddmin(items: Sequence, predicate: Callable[[list], bool], max_calls: int = 160) -> list:
    """Zeller's ddmin: smallest sublist of ``items`` still satisfying
    ``predicate``, under a predicate-call budget."""
    items = list(items)
    calls = 0
    granularity = 2
    while len(items) >= 2 and calls < max_calls:
        chunk = max(1, len(items) // granularity)
        reduced = False
        for start in range(0, len(items), chunk):
            complement = items[:start] + items[start + chunk :]
            if not complement:
                continue
            calls += 1
            if predicate(complement):
                items = complement
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if calls >= max_calls:
                break
        if not reduced:
            if granularity >= len(items):
                break
            granularity = min(len(items), granularity * 2)
    return items


class FuzzRunner:
    """One fuzzing campaign over the three differential oracles."""

    def __init__(
        self,
        seed: int = 0,
        iterations: int = 100,
        time_budget: Optional[float] = None,
        oracles: Sequence[str] = ("codec", "engine", "host"),
        corpus_dir=None,
        minimize: bool = True,
        max_minimize_calls: int = 160,
    ):
        for kind in oracles:
            if kind not in _KINDS:
                raise ValueError(f"unknown oracle {kind!r} (have {sorted(_KINDS)})")
        self.seed = seed
        self.iterations = iterations
        self.time_budget = time_budget
        self.oracles = tuple(oracles)
        self.corpus_dir = corpus_dir
        self.minimize = minimize
        self.max_minimize_calls = max_minimize_calls

    # -- minimization ------------------------------------------------------

    def _same_signature(self, kind: str, signature: str) -> Callable:
        oracle = _KINDS[kind][1]

        def still_fails(case) -> bool:
            divergence = oracle(case)
            return divergence is not None and divergence.signature == signature

        return still_fails

    def _minimize_case(self, kind: str, case, signature: str):
        still_fails = self._same_signature(kind, signature)
        if kind == "codec":
            frames = ddmin(
                case.frames,
                lambda sub: still_fails(CodecCase(case.seed, sub, case.mutated, case.chunks)),
                self.max_minimize_calls,
            )
            return CodecCase(case.seed, frames, case.mutated, case.chunks)
        if kind == "host":
            events = ddmin(
                case.events,
                lambda sub: still_fails(
                    HostCase(
                        case.seed,
                        case.plugin,
                        case.session,
                        sub,
                        case.roas,
                        case.coord,
                        case.engine,
                    )
                ),
                self.max_minimize_calls,
            )
            return HostCase(
                case.seed, case.plugin, case.session, events, case.roas, case.coord, case.engine
            )
        return case  # engine cases: the stream is the program; kept as-is

    # -- the campaign ------------------------------------------------------

    def run(self) -> Dict[str, object]:
        started = time.perf_counter()
        cases_run: Dict[str, int] = {kind: 0 for kind in self.oracles}
        divergences: List[Dict[str, object]] = []
        corpus_files: List[str] = []
        seen: Dict[str, int] = {}
        #: How the compiled tier compiled each engine case's program.
        compiled = {"structured": 0, "tail": 0, "dispatch": 0}
        iterations_run = 0
        for index in range(self.iterations):
            if (
                self.time_budget is not None
                and time.perf_counter() - started >= self.time_budget
            ):
                break
            kind = self.oracles[index % len(self.oracles)]
            generate, oracle = _KINDS[kind]
            case_seed = self.seed * 1_000_003 + index
            case = generate(case_seed)
            divergence = (
                oracle(case, compiled) if kind == "engine" else oracle(case)
            )
            iterations_run += 1
            cases_run[kind] += 1
            if divergence is None:
                continue
            if divergence.signature in seen:
                seen[divergence.signature] += 1
                continue
            seen[divergence.signature] = 1
            minimized = (
                self._minimize_case(kind, case, divergence.signature)
                if self.minimize
                else case
            )
            entry = entry_for(minimized, divergence)
            record = {
                "oracle": divergence.oracle,
                "signature": divergence.signature,
                "detail": divergence.detail,
                "seed": case_seed,
                "minimized_length": _case_length(minimized),
                "original_length": _case_length(case),
            }
            if self.corpus_dir is not None:
                path = save_entry(self.corpus_dir, entry)
                record["corpus_file"] = str(path)
                corpus_files.append(str(path))
            divergences.append(record)
        duplicates = {sig: count for sig, count in seen.items() if count > 1}
        return {
            "seed": self.seed,
            "oracles": list(self.oracles),
            "iterations_requested": self.iterations,
            "iterations_run": iterations_run,
            "cases": cases_run,
            "compiled": compiled,
            "elapsed_seconds": round(time.perf_counter() - started, 3),
            "divergences": divergences,
            "duplicate_hits": duplicates,
            "corpus_files": corpus_files,
            "clean": not divergences,
        }


def _case_length(case) -> int:
    if isinstance(case, CodecCase):
        return len(case.frames)
    if isinstance(case, HostCase):
        return len(case.events)
    return len(case.program) // 8
