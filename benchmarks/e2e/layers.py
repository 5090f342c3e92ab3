"""Outside-in layer attribution for the benchmark's traced pass.

:class:`Tracer` replaces module attributes of ``repro`` with timing
wrappers, so every call the PGO cycle makes into a layer's public function
opens a span.  Spans nest on a stack: a layer's *self* time is its span's
duration minus the time its child spans cover (decode, for example, is
subtracted from the ``execute`` call that triggered it).  Counts are taken
from call arguments and results after the span has closed.

Nothing inside ``src/`` changes; the wrappers only see what the driver and
the build pipeline pass across these module boundaries.  Spans stay in
memory and are written once, as a Chrome trace, when the pass is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

#: The driver's ``execute`` is one boundary but two layers: it collects a
#: profile when a PMU is attached and evaluates the final binary otherwise.
_EXECUTE = "hw.execute"

#: ``(module, attribute, layer)`` for every wrapped function.  The
#: attribute is looked up where the *caller* imported it, which is where
#: replacing it takes effect.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.pgo.driver", "execute", _EXECUTE),
    ("repro.pgo.driver", "generate_context_profile", "correlate.profgen"),
    ("repro.pgo.driver", "generate_dwarf_profile", "correlate.profgen"),
    ("repro.pgo.driver", "generate_probe_profile", "correlate.profgen"),
    ("repro.pgo.driver", "trim_cold_contexts", "profile.trim"),
    ("repro.pgo.driver", "extract_function_sizes", "preinline.preinline"),
    ("repro.pgo.driver", "run_preinliner", "preinline.preinline"),
    ("repro.hw.decoded", "decode_program", "hw.decode"),
    ("repro.pgo.build", "annotate_autofdo", "annotate.annotate"),
    ("repro.pgo.build", "annotate_probe_flat", "annotate.annotate"),
    ("repro.pgo.build", "csspgo_sample_loader", "annotate.annotate"),
    ("repro.pgo.build", "optimize_module", "opt.optimize"),
    ("repro.pgo.build", "insert_pseudo_probes", "probes.insert"),
    ("repro.pgo.build", "lower_module", "codegen.codegen"),
    ("repro.pgo.build", "link", "codegen.codegen"),
    ("repro.pgo.build", "build_probe_metadata", "codegen.codegen"),
    ("repro.pgo.build", "build_dwarf", "codegen.codegen"),
    ("repro.pgo.build", "measure_sizes", "codegen.codegen"),
    ("repro.annotate.sample_loader", "infer_module_counts",
     "inference.infer"),
)

#: Layers whose self time counts as attributed, in pipeline order.
LAYERS = ("hw.collect", "hw.decode", "correlate.profgen", "profile.trim",
          "preinline.preinline", "annotate.annotate", "inference.infer",
          "opt.optimize", "probes.insert", "codegen.codegen", "hw.evaluate")

#: Span layer of one whole ``run_pgo`` call; its self time is unattributed.
CYCLE = "pgo.cycle"


Counts = Dict[str, int]


def _count_execute(layer: str, args, kwargs, result) -> Counts:
    if layer == "hw.collect":
        return {"hw.samples": len(_pmu(args, kwargs).data),
                "hw.collect_instructions": result.instructions_retired}
    return {"hw.instructions": result.instructions_retired}


def _count_profgen(layer: str, args, kwargs, result) -> Counts:
    data = args[1]
    counts = {"correlate.samples": len(data),
              "correlate.unique_payloads": len(data.aggregated())}
    if isinstance(result, tuple):  # context profgen: (profile, inferrer)
        counts["correlate.frames_attempted"] = result[1].attempted
        counts["correlate.frames_recovered"] = result[1].recovered
    return counts


def _count_annotate(layer: str, args, kwargs, result) -> Counts:
    return {"annotate.functions_annotated": len(result.annotated),
            "annotate.functions_rejected": len(result.rejected_checksum)}


#: Attribute name -> count extractor, run after the span has closed.
_COUNTERS: Dict[str, Callable[..., Counts]] = {
    "execute": _count_execute,
    "generate_context_profile": _count_profgen,
    "generate_dwarf_profile": _count_profgen,
    "generate_probe_profile": _count_profgen,
    "trim_cold_contexts": lambda layer, args, kwargs, result:
        {"profile.contexts_trimmed": result[1]},
    "run_preinliner": lambda layer, args, kwargs, result:
        {"preinline.decisions": len(result)},
    "decode_program": lambda layer, args, kwargs, result: {"hw.decodes": 1},
    "annotate_autofdo": _count_annotate,
    "annotate_probe_flat": _count_annotate,
    "csspgo_sample_loader": _count_annotate,
}


def _pmu(args, kwargs):
    return kwargs.get("pmu", args[2] if len(args) > 2 else None)


class _Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "children_s",
                 "context")

    def __init__(self, layer: str, name: str, parent: Optional[int],
                 context: Dict[str, object]):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.context = context
        self.children_s = 0.0
        self.start = time.perf_counter()
        self.end = self.start


class Tracer:
    """Span stack, per-layer self time and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[_Span] = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        #: Inference sessions the driver installed, read after the pass.
        self.sessions: List[object] = []
        #: Labels stamped on every span opened from now on.
        self.context: Dict[str, object] = {}
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        for module_name, attribute, layer in HOOKS:
            module, original = self._save(module_name, attribute)
            setattr(module, attribute,
                    self._timed(original, attribute, layer))
        module, install = self._save("repro.inference.incremental",
                                     "install")
        module.install = self._capture_session(install)

    def uninstall(self) -> None:
        while self._saved:
            module, attribute, original = self._saved.pop()
            setattr(module, attribute, original)

    def _save(self, module_name: str, attribute: str):
        module = importlib.import_module(module_name)
        original = getattr(module, attribute, None)
        if original is None:
            raise RuntimeError(f"traced boundary {module_name}.{attribute} "
                               "no longer exists; update layers.HOOKS")
        self._saved.append((module, attribute, original))
        return module, original

    def _capture_session(self, install: Callable) -> Callable:
        @functools.wraps(install)
        def wrapper(*args, **kwargs):
            session = install(*args, **kwargs)
            self.sessions.append(session)
            return session
        return wrapper

    def _timed(self, fn: Callable, attribute: str, layer: str) -> Callable:
        counter = _COUNTERS.get(attribute)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_layer = layer
            if layer == _EXECUTE:
                span_layer = ("hw.collect" if _pmu(args, kwargs) is not None
                              else "hw.evaluate")
            index = self.open(span_layer, attribute)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if counter is not None:
                self.counts.update(counter(span_layer, args, kwargs, result))
            return result
        return wrapper

    # -- spans ---------------------------------------------------------------
    def open(self, layer: str, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(_Span(layer, name, parent, self.context))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        duration = span.end - span.start
        self.self_s[span.layer] += duration - span.children_s
        if span.parent is not None:
            self.spans[span.parent].children_s += duration

    # -- results -------------------------------------------------------------
    def metrics(self, pass_s: float, cycles: int) -> Dict[str, float]:
        """Per-layer metrics of the pass; times are seconds per cycle."""
        s, c = self.self_s, self.counts
        solved = sum(session.solved for session in self.sessions)
        reused = sum(session.reused for session in self.sessions)
        attributed = sum(s[layer] for layer in LAYERS)
        profgen_s = s["correlate.profgen"]
        return {
            "hw.collect_s": s["hw.collect"] / cycles,
            "hw.collect_ns_per_instr":
                _ratio(s["hw.collect"] * 1e9, c["hw.collect_instructions"]),
            "hw.samples": c["hw.samples"],
            "hw.evaluate_s": s["hw.evaluate"] / cycles,
            "hw.evaluate_ns_per_instr":
                _ratio(s["hw.evaluate"] * 1e9, c["hw.instructions"]),
            "hw.instructions": c["hw.instructions"],
            "hw.decode_s": s["hw.decode"] / cycles,
            "hw.decodes": c["hw.decodes"],
            "correlate.profgen_s": profgen_s / cycles,
            "correlate.samples_per_s":
                _ratio(c["correlate.samples"], profgen_s),
            "correlate.unique_payload_ratio":
                _ratio(c["correlate.unique_payloads"],
                       c["correlate.samples"]),
            "correlate.frames_recovered_ratio":
                _ratio(c["correlate.frames_recovered"],
                       c["correlate.frames_attempted"]),
            "opt.optimize_s": s["opt.optimize"] / cycles,
            "inference.infer_s": s["inference.infer"] / cycles,
            "inference.solved": solved,
            "inference.reused": reused,
            "inference.reuse_ratio": _ratio(reused, solved + reused),
            "codegen.codegen_s": s["codegen.codegen"] / cycles,
            "probes.insert_s": s["probes.insert"] / cycles,
            "annotate.annotate_s": s["annotate.annotate"] / cycles,
            "annotate.functions_annotated":
                c["annotate.functions_annotated"],
            "annotate.functions_rejected": c["annotate.functions_rejected"],
            "profile.trim_s": s["profile.trim"] / cycles,
            "profile.contexts_trimmed": c["profile.contexts_trimmed"],
            "preinline.preinline_s": s["preinline.preinline"] / cycles,
            "preinline.decisions": c["preinline.decisions"],
            "pgo.unattributed_s": (pass_s - attributed) / cycles,
            "pgo.attributed_pct": 100.0 * attributed / pass_s,
        }

    def shares(self, pass_s: float) -> Dict[str, float]:
        """Each layer's self time, and the rest, as a percentage of the
        pass."""
        shares = {layer: 100.0 * self.self_s[layer] / pass_s
                  for layer in LAYERS}
        shares["pgo.unattributed"] = 100.0 - sum(shares.values())
        return shares

    def write_chrome_trace(self, path: Path) -> None:
        """All spans as Chrome trace-event ``X`` events (microseconds)."""
        events = []
        for index, span in enumerate(self.spans):
            events.append({
                "name": span.name, "cat": span.layer, "ph": "X",
                "ts": (span.start - self._origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1, "tid": 1,
                "args": dict(span.context, layer=span.layer, span=index,
                             parent=span.parent)})
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)
            handle.write("\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
