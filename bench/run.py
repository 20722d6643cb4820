"""Run one exigraph benchmark workload and print its metrics.

    python3 bench/run.py --workload dialogue --seed 1 --seconds 55 --trace 0

Run from anywhere; the engine is imported from ``src/`` beside this
directory.  The workload's inputs are made from ``--seed``.  One process,
one thread, one closed-loop client: each line goes in only after the
previous one has answered.  Whole passes over the inputs repeat while
another pass still fits in ``--seconds``, so every pass runs the same work.

Every operation's output is checked (see README.md); a wrong verdict,
exit code or round trip, an exception or a per-operation timeout counts as
a failed operation.  The table lists every metric with its unit and sample
count; the last line is one JSON object.  With ``--trace 1`` the engine's
modules are wrapped by ``spans.py`` and the per-layer metrics are reported
instead of the end-to-end ones; the spans go to ``.bench_out/``.

Exit status 0 means the run completed (check ``failed`` for wrong
answers); 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import typing
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"

SETUP_REPEATS = 3  # timed set-ups before the first pass and after each pass
OP_TIMEOUT_S = 30.0
ORACLE_EPISODES = 3  # existence ops whose results are checked, per run
ORACLE_NODES = 4  # entities checked per sampled op

UNITS = {
    "setup_s": "s", "ask_p50_ms": "ms", "ask_p90_ms": "ms",
    "assert_p50_ms": "ms", "assert_p90_ms": "ms", "lines_per_s": "lines/s",
    "check_s": "s", "existence_per_s": "queries/s", "save_load_ms": "ms",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised by the per-operation alarm; not an Exception, so no handler
    inside the engine can mistake it for an error of its own."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Run:
    """Samples and failures of one run; the engine modules it drives."""

    def __init__(self, workload, workdir: Path, recorder, oracle, seed: int):
        self.wl = workload
        self.workdir = workdir
        self.recorder = recorder
        self.oracle = oracle
        self.qa = sys.modules["exigraph.qa"]
        self.cli = sys.modules["exigraph.cli"]
        # the harness's own reads; built before spans.install, so these
        # are the unwrapped methods and a traced run does not count them
        kb_class = sys.modules["exigraph.kb"].KnowledgeBase
        self.raw_entities = kb_class.entities
        self.raw_memberships = kb_class.memberships
        self.values = {str(v): v for v in sys.modules["exigraph.logic3"].VALUES}
        # kind -> latencies in ns of every operation of every pass; for
        # existence, (ns, existence_degree calls) of each sweep
        self.samples = {kind: [] for kind in
                        ("ask", "assert", "check", "saveload", "existence")}
        self.attempted = 0
        self.failures: list[str] = []
        self.op_id = 0
        rng = random.Random(f"oracle:{seed}")
        with_existence = [i for i, ep in enumerate(workload.episodes)
                          if any(op.kind == "existence" for op in ep.ops)]
        self.oracle_episodes = set(rng.sample(
            with_existence, min(ORACLE_EPISODES, len(with_existence))))
        self.oracle_rng = rng
        self.oracle_cases: list[tuple] = []

    def fail(self, where: str, why: str) -> None:
        self.failures.append(f"{where}: {why}")

    # -- one pass over the inputs ----------------------------------------

    def run_pass(self, first: bool) -> None:
        for idx, ep in enumerate(self.wl.episodes):
            session = self.qa.Session()
            kb = session.kb
            for elem, set_, word in ep.graph:
                kb.assert_membership(kb.upsert_entity(elem),
                                     kb.upsert_entity(set_), self.values[word])
            sample = first and idx in self.oracle_episodes
            for op in ep.ops:
                self.op_id += 1
                if self.recorder is not None:
                    self.recorder.op_id = self.op_id
                where = f"{ep.name}: {op.kind} {op.text}".rstrip()
                signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
                try:
                    took = getattr(self, "_" + op.kind)(session, op, where,
                                                         sample)
                    sample = sample and op.kind != "existence"
                    if took is not None:
                        self.samples[op.kind].append(took)
                except OpTimeout:
                    self.attempted += 1
                    self.fail(where, f"timed out after {OP_TIMEOUT_S} s")
                    break  # the session is in an unknown state
                except Exception as exc:  # any raise is a failed operation
                    self.attempted += 1
                    self.fail(where, f"raised {type(exc).__name__}: {exc}")
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)

    def _lines_ok(self, where, op, out: list[str]) -> bool:
        if op.expect is not None and out[0] != op.expect:
            self.fail(where, f"printed {out[0]!r}, expected {op.expect!r}")
            return False
        if op.more is not None and tuple(out[1:]) != op.more:
            self.fail(where, f"printed {out[1:]!r}, expected {op.more!r}")
            return False
        return True

    def _assert(self, session, op, where, sample):
        t0 = time.perf_counter_ns()
        revision, aims = session.assert_line(op.text)
        out = [f"ok #{revision}"] + [f"aim: {a.description}" for a in aims]
        t1 = time.perf_counter_ns()
        self.attempted += 1
        if self._lines_ok(where, op, out):
            return t1 - t0

    def _ask(self, session, op, where, sample):
        t0 = time.perf_counter_ns()
        ans = session.ask_line(op.text)
        out = [ans.render()]
        out += [f"  {i}. {step.render()}" for i, step in
                enumerate(ans.trace, start=1)]
        if ans.suggestion is not None:
            out.append(f"  suggested: {ans.suggestion}")
        t1 = time.perf_counter_ns()
        self.attempted += 1
        if not self._lines_ok(where, op, out):
            return None
        if ans.modality == "proven" and op.truth is not None \
                and (str(ans.verdict) == "yes") != op.truth:
            self.fail(where, f"{out[0]} is false in the generated world")
            return None
        return t1 - t0

    def _check(self, session, op, where, sample):
        path = str(self.workdir / op.text)
        sink = io.StringIO()
        t0 = time.perf_counter_ns()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.cli.main(["check", "--kb", path])
        t1 = time.perf_counter_ns()
        self.attempted += 1
        if str(code) != op.expect:
            self.fail(where, f"exit {code}, expected {op.expect}: "
                      f"{sink.getvalue()!r}")
            return None
        return t1 - t0

    def _saveload(self, session, op, where, sample):
        first, second = self.workdir / "saved-1.kb", self.workdir / "saved-2.kb"
        t0 = time.perf_counter_ns()
        self.qa.save_kb(session, str(first))
        loaded = self.qa.load_kb(str(first))
        t1 = time.perf_counter_ns()
        self.attempted += 1
        self.qa.save_kb(loaded, str(second))
        if first.read_bytes() != second.read_bytes():
            self.fail(where, "save -> load -> save is not byte-identical")
            return None
        return t1 - t0

    def _existence(self, session, op, where, sample):
        kb = session.kb
        ents = self.raw_entities(kb)
        t0 = time.perf_counter_ns()
        values = [kb.existence_degree(e) for e in ents]
        t1 = time.perf_counter_ns()
        kb.meta_sets()
        self.attempted += len(ents)
        if sample:
            graph = {(kb.label(m.element), kb.label(m.set_)): m.value
                     for m in self.raw_memberships(kb)}
            picks = self.oracle_rng.sample(range(len(ents)),
                                           min(ORACLE_NODES, len(ents)))
            self.oracle_cases += [(where, graph, ents[i].label, kb.root.label,
                                   str(values[i])) for i in picks]
        return t1 - t0, len(ents)

    # -- after the timed passes ------------------------------------------

    def check_oracle(self) -> None:
        """existence_degree against the brute-force oracle, outside the
        timed region, on the seeded sample taken during the first pass."""
        for where, graph, label, root, got in self.oracle_cases:
            want = str(self.oracle.oracle_existence_degree(graph, label, root))
            if want != got:
                self.fail(where, f"existence_degree({label}) = {got}, "
                          f"oracle says {want}")


def set_up(name: str, seed: int, workdir: Path):
    """Import the engine afresh, build the mood table, generate the
    workload and write its KB files into the empty ``workdir``; the runs
    time this several times."""
    for mod in [m for m in sys.modules
                if m == "exigraph" or m.startswith("exigraph.")]:
        del sys.modules[mod]
    importlib.import_module("exigraph.cli")
    sys.modules["exigraph.syllogistics"].valid_moods()
    wl = workloads.build(name, seed)
    workdir.mkdir(parents=True)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    return wl


def _load_oracle():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def end_to_end(run: Run, setup_times: list[float]
               ) -> dict[str, tuple[float, int]]:
    """metric -> (value, sample count); samples pool all passes.  A metric
    whose operation the workload does not run is left out."""
    s = run.samples
    out = {"setup_s": (statistics.median(setup_times), len(setup_times))}
    for kind in ("ask", "assert"):
        ms = [ns / 1e6 for ns in s[kind]]
        out[f"{kind}_p50_ms"] = (statistics.median(ms), len(ms))
        out[f"{kind}_p90_ms"] = (statistics.quantiles(ms, n=10)[8], len(ms))
    lines = s["ask"] + s["assert"]
    out["lines_per_s"] = (len(lines) / (sum(lines) / 1e9), len(lines))
    if s["check"]:
        out["check_s"] = (statistics.median(s["check"]) / 1e9,
                          len(s["check"]))
    if s["existence"]:  # (ns, calls) of each sweep
        sweeps = s["existence"]
        out["existence_per_s"] = (sum(calls for _, calls in sweeps)
                                  / (sum(ns for ns, _ in sweeps) / 1e9),
                                  len(sweeps))
    if s["saveload"]:
        out["save_load_ms"] = (statistics.median(s["saveload"]) / 1e6,
                               len(s["saveload"]))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (rss_kb / 1024, 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exigraph" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"error: {SRC / 'exigraph'} and {ORACLES} are needed; run from "
              "a checkout of the exigraph repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = (ROOT / ".bench_work"
               / f"{args.workload}-{args.seed}-{os.getpid()}")
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_set_up(args, workdir: Path, times: list[float]):
    shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    wl = set_up(args.workload, args.seed, workdir)
    times.append(time.perf_counter() - t0)
    # outside every timed region, free the modules the set-up dropped.
    # typing's caches (Optional[Entity] and the like) would keep each
    # dropped module's classes alive, and peak_rss_mb would grow with the
    # number of set-ups instead of measuring the engine
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()
    return wl


def _measure(args, workdir: Path) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        wl = _timed_set_up(args, workdir, setup_times)
    recorder = spans.Recorder() if args.trace else None
    run = Run(wl, workdir, recorder, _load_oracle(), args.seed)
    if recorder is not None:
        spans.install(recorder)

    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        run.run_pass(first=passes == 0)
        passes += 1
        # more set-ups between the passes, so setup_s samples the whole
        # run as the other metrics do; the passes keep the first modules
        for _ in range(SETUP_REPEATS):
            _timed_set_up(args, workdir, setup_times)
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    run.check_oracle()

    e2e = end_to_end(run, setup_times)
    failed = len(run.failures)
    for line in run.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  passes {passes}  "
          f"trace {args.trace}")
    print(f"{'metric':34} {'value':>14}  {'unit':16} samples")
    for name, (value, n) in e2e.items():
        print(f"{name:34} {value:14.4f}  {UNITS[name]:16} {n}")
    print(f"{'failed_ratio':34} {failed / run.attempted:14.4f}  "
          f"{'failed/attempted':16} {run.attempted}")
    if recorder is None:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, (v, _) in e2e.items()}
    else:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in recorder.layer_metrics(passes).items()}
        for name in ("lines_per_s", "check_s", "existence_per_s"):
            if name in e2e:
                metrics[f"traced.{name}"] = {"value": e2e[name][0],
                                             "unit": UNITS[name]}
        print("per layer, per pass:")
        for name, m in metrics.items():
            print(f"{name:34} {m['value']:14.6f}  {m['unit']}")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        recorder.write(str(out_dir / f"spans-{args.workload}-{args.seed}.tsv"))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
