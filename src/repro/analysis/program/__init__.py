"""Whole-program analysis layer.

The per-file rules in :mod:`repro.analysis.rules` see one module at a
time; the contracts they guard, however, are *program* properties: the
purity of :func:`repro.memsim.evaluation.evaluate` depends on every
function it transitively calls, the pickle-safety of a sweep depends on
every type that crosses the :mod:`repro.sweep.cluster` wire boundary, and
the counter catalogue is only honest if every emitted name — wherever
it is built — round-trips against :mod:`repro.obs.catalog`.

This package adds that layer:

* :mod:`~repro.analysis.program.summary` — a serialisable
  :class:`ModuleSummary` per file: imports, functions with their calls,
  side-effect sites, counter emissions and unit-tagged arithmetic,
  classes with their fields. Summaries are *facts*, not verdicts.
* :mod:`~repro.analysis.program.cache` — a content-hash keyed store
  under ``.simlint-cache/`` so unchanged files never re-parse.
* :mod:`~repro.analysis.program.graph` — the :class:`Program`: the
  module table, import/name resolution, the call graph, and
  reachability queries the passes share.
* Four interprocedural passes registered like any other rule:
  **SIM201** purity-escape, **SIM202** pickle-safety, **SIM203**
  counter-catalogue drift, **SIM204** units-flow.

The analyses are deliberately *summary-based* rather than full dataflow
(see DESIGN.md): each function is reduced to a small fact record once,
and the passes combine records over the call graph. That keeps a
whole-repo run under the benchmarked 5-second budget and keeps every
verdict explainable by at most two facts (a site and a path to a root).
"""

from __future__ import annotations

from repro.analysis.program.graph import Program, build_program
from repro.analysis.program.summary import ModuleSummary, summarize_module

__all__ = [
    "ModuleSummary",
    "Program",
    "build_program",
    "summarize_module",
]
