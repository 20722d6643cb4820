"""The benchmark's traced run wraps engine functions by name.

``bench/spans.py`` looks each target up with ``getattr`` when it installs
its wrappers, so renaming or deleting one breaks the traced run but no
other test.  This loads the module by path, without installing anything,
and checks that every name it wraps still resolves.
"""

import importlib
import importlib.util
import pathlib

from exigraph import syllogistics
from exigraph.kb import KnowledgeBase

SPANS_PY = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_wraps_resolves():
    spans = _load_spans()
    missing = []
    for span, targets in spans.SPANS.items():
        for owner, attr in targets:
            holder = KnowledgeBase if owner == "KnowledgeBase" \
                else importlib.import_module(f"exigraph.{owner}")
            if not callable(getattr(holder, attr, None)):
                missing.append(f"{span}: {owner}.{attr}")
    missing += [f"scan: KnowledgeBase.{attr}" for attr in spans.SCANS
                if not callable(getattr(KnowledgeBase, attr, None))]
    if not callable(getattr(syllogistics, "infer_syllogism", None)):
        missing.append("count: syllogistics.infer_syllogism")
    assert missing == []
