"""Span recorder for the traced benchmark run.

:func:`install` wraps the public functions of each exigraph module and the
``KnowledgeBase`` methods the per-layer metrics name, in the running
process only; nothing under ``src/`` changes.  A wrapped call records a
span (name, start, end, parent span, operation id), or only a count where a
span per call would swamp the trace (the mood attempts of
``infer_syllogism`` and the full-table reads of the KB).  Spans stay in
memory until :meth:`Recorder.write`.

``logic3`` is not wrapped: its calls are too fine-grained to time from
outside, and their cost shows up inside ``kb.existence_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional

# span name -> (module, attribute) of every function wrapped with a span;
# "KnowledgeBase" names methods of exigraph.kb.KnowledgeBase
SPANS = {
    "lang.parse": [("lang", "parse_statement"), ("lang", "parse_question")],
    "kb.write": [("KnowledgeBase", "assert_membership"),
                 ("KnowledgeBase", "assert_edge"),
                 ("KnowledgeBase", "assert_proposition")],
    "kb.members_true": [("KnowledgeBase", "members_true")],
    "kb.existence": [("KnowledgeBase", "existence_degree")],
    "syllogistics.closure": [("syllogistics", "closure")],
    "syllogistics.eval": [("syllogistics", "eval_proposition")],
    "syllogistics.contradictions": [("syllogistics", "contradictions")],
    "abduction.abduce": [("abduction", "abduce_membership")],
    "abduction.rules": [("abduction", "apply_rules")],
    "agency.trigger": [("agency", "fire_triggers")],
    "qa.answer": [("qa", "answer")],
    "qa.save": [("qa", "save_kb")],
    "qa.load": [("qa", "load_kb")],
    "cli.check": [("cli", "cmd_check")],
}
SCANS = ("entities", "edges", "memberships", "propositions")

# children whose presence under a qa.answer span marks the stage reached
_CLOSURE_STAGE = {"syllogistics.closure"}
_ABDUCTION_STAGE = {"abduction.rules", "abduction.abduce"}


class Recorder:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, operation id)
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = 0

    def span(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if on_result is not None:
                on_result(counts, result)
            return result
        return wrapper

    def count(self, fn: Callable, on_result: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(counts, result)
            return result
        return wrapper

    def write(self, path: str) -> None:
        """One span per line: op id, name, start ns, end ns, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tname\tstart_ns\tend_ns\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start}\t{end}\t{parent}\n")

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """metric -> (value, unit).  Totals are divided by the number of
        passes: every pass runs the same inputs, so counts repeat exactly
        from run to run."""
        total: Counter = Counter()  # span name -> inclusive ns
        calls: Counter = Counter()
        child_ns = [0] * len(self.spans)
        child_names: list[set] = [set() for _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += end - start
                child_names[parent].add(name)

        def self_ns(name):
            return sum(end - start - child_ns[i]
                       for i, (n, start, end, _, _) in enumerate(self.spans)
                       if n == name)

        # the deepest stage an answer reached, from its child spans
        stages: Counter = Counter()
        for i, span in enumerate(self.spans):
            if span[0] == "qa.answer":
                kids = child_names[i]
                stages["abduction" if kids & _ABDUCTION_STAGE else
                       "closure" if kids & _CLOSURE_STAGE else "lookup"] += 1
        answers = sum(stages.values())
        c = self.counts
        seconds = {
            "lang.parse_s": total["lang.parse"],
            "kb.write_s": total["kb.write"],
            "kb.members_true_s": total["kb.members_true"],
            "kb.existence_s": total["kb.existence"],
            "syllogistics.closure_s": total["syllogistics.closure"],
            "syllogistics.eval_s": total["syllogistics.eval"],
            "syllogistics.contradictions_s":
                total["syllogistics.contradictions"],
            "abduction.abduce_s": total["abduction.abduce"],
            "abduction.rules_s": total["abduction.rules"],
            "agency.trigger_s": total["agency.trigger"],
            "qa.answer_s": total["qa.answer"],
            "qa.answer_self_s": self_ns("qa.answer"),
            "qa.save_s": total["qa.save"],
            "qa.load_s": total["qa.load"],
            "cli.check_self_s": self_ns("cli.check"),
        }
        counts = {
            "lang.parse_calls": calls["lang.parse"],
            "kb.writes": calls["kb.write"],
            "kb.scan_calls": c["kb.scan_calls"],
            "kb.scan_rows": c["kb.scan_rows"],
            "kb.existence_calls": calls["kb.existence"],
            "syllogistics.closure_calls": calls["syllogistics.closure"],
            "syllogistics.closure_added": c["closure_added"],
            "syllogistics.infer_calls": c["infer_calls"],
            "syllogistics.eval_calls": calls["syllogistics.eval"],
            "abduction.abduce_calls": calls["abduction.abduce"],
            "abduction.hypotheses": c["hypotheses"],
            "abduction.rules_fired": c["rules_fired"],
            "agency.aims": c["aims"],
        }
        ratios = {
            "kb.write_admit_ratio": (c["kb.admitted"], calls["kb.write"]),
            "syllogistics.closure_useful_ratio":
                (c["closure_useful"], calls["syllogistics.closure"]),
            "syllogistics.infer_hit_ratio": (c["infer_hits"], c["infer_calls"]),
            "qa.settled_lookup": (stages["lookup"], answers),
            "qa.settled_closure": (stages["closure"], answers),
            "qa.reached_abduction": (stages["abduction"], answers),
        }
        out = {k: (ns / 1e9 / passes, "s") for k, ns in seconds.items()}
        out.update({k: (n / passes, "count") for k, n in counts.items()})
        out.update({k: (num / den if den else 0.0, "ratio")
                    for k, (num, den) in ratios.items()})
        return out


def _on_write(counts, result):
    if result is not None:
        counts["kb.admitted"] += 1


def _on_closure(counts, added):
    counts["closure_added"] += added
    if added:
        counts["closure_useful"] += 1


def _on_infer(counts, result):
    counts["infer_calls"] += 1
    if result is not None:
        counts["infer_hits"] += 1


def _on_scan(counts, rows):
    counts["kb.scan_calls"] += 1
    counts["kb.scan_rows"] += len(rows)


_ON_RESULT = {
    "kb.write": _on_write,
    "syllogistics.closure": _on_closure,
    "abduction.abduce": lambda counts, hyps: counts.update(hypotheses=len(hyps)),
    "abduction.rules": lambda counts, fired: counts.update(rules_fired=fired),
    "agency.trigger": lambda counts, aims: counts.update(aims=len(aims)),
}


def install(recorder: Recorder) -> None:
    """Wrap every target in the loaded exigraph modules.

    ``from .x import f`` copies the function into the importing module, so
    each module attribute that is the original function is replaced, not
    only the defining one.
    """
    from exigraph.kb import KnowledgeBase

    modules = [m for name, m in sys.modules.items()
               if name.startswith("exigraph.") and m is not None]

    def replace(original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    for name, targets in SPANS.items():
        for owner, attr in targets:
            if owner == "KnowledgeBase":
                original = getattr(KnowledgeBase, attr)
                setattr(KnowledgeBase, attr, recorder.span(
                    name, original, _ON_RESULT.get(name)))
            else:
                original = getattr(sys.modules[f"exigraph.{owner}"], attr)
                replace(original, recorder.span(name, original,
                                                _ON_RESULT.get(name)))
    for attr in SCANS:
        setattr(KnowledgeBase, attr,
                recorder.count(getattr(KnowledgeBase, attr), _on_scan))
    infer = sys.modules["exigraph.syllogistics"].infer_syllogism
    replace(infer, recorder.count(infer, _on_infer))
