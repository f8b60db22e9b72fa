"""SIM203: bidirectional drift between emitted counters and the catalogue.

The counter catalogue (:mod:`repro.obs.catalog`) is the contract the
observability layer offers its consumers: every name a recorder can see
is documented with a unit and a meaning. That contract rots in two
directions — an emit site starts using a name the catalogue never heard
of (dashboards silently miss it), or a catalogue entry outlives its last
emit site (documentation promises a counter that never arrives).

This pass closes the loop statically. Emitted names come from the
summaries' :class:`~repro.analysis.program.summary.EmitSite` records,
including f-string names resolved to ``*``-patterns (``f"memsim.dimm.
s{s}.d{d}.issued_bytes"`` resolves to ``memsim.dimm.*.*.issued_bytes``,
which still carries its full segment shape). Catalogue patterns are read
from the catalogue module's own AST — the first string argument of each
spec constructor inside the ``CATALOG`` assignment — so the pass works
on fixture projects with their own miniature catalogues too.

Sites whose name flows in through a parameter are skipped rather than
resolved: such a helper only re-emits a name that some literal/f-string
site already produced, so chasing callers would only duplicate
verdicts.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.finding import Finding, Rule
from repro.analysis.registry import register_program

RULE = Rule(
    code="SIM203",
    name="counter-drift",
    summary="emitted counter names and the catalogue disagree",
)


def _catalog_patterns(module) -> list[tuple[str, int, int]]:
    """(pattern, line, col) for each spec in the module's ``CATALOG``."""
    try:
        tree = ast.parse(module.source)
    except SyntaxError:
        return []
    patterns: list[tuple[str, int, int]] = []
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        if value is None or not any(
            isinstance(t, ast.Name) and t.id == "CATALOG" for t in targets
        ):
            continue
        for node in ast.walk(value):
            if isinstance(node, ast.Call) and node.args and isinstance(
                node.args[0], ast.Constant
            ) and isinstance(node.args[0].value, str):
                patterns.append(
                    (node.args[0].value, node.lineno, node.col_offset)
                )
    return patterns


def _compatible(pattern: str, name: str) -> bool:
    """Segment-aware match where ``*`` wildcards either side."""
    spec_segments = pattern.split(".")
    name_segments = name.split(".")
    if len(spec_segments) != len(name_segments):
        return False
    return all(
        s == n or s == "*" or n == "*"
        for s, n in zip(spec_segments, name_segments)
    )


@register_program(RULE)
def check_counter_drift(program) -> Iterable[Finding]:
    catalog_module = program.modules.get(program.config.counter_catalog)
    if catalog_module is None:
        return
    patterns = _catalog_patterns(catalog_module)
    if not patterns:
        return

    emitted: list[tuple[str, object, int, int]] = []
    for full in sorted(program.functions):
        ref = program.functions[full]
        if ref.module.name == catalog_module.name:
            continue
        for emit in ref.summary.emits:
            if emit.name is not None:
                emitted.append((emit.name, ref.module, emit.line, emit.col))

    live: set[str] = set()
    for name, module, line, col in emitted:
        matches = [p for p, _, _ in patterns if _compatible(p, name)]
        if matches:
            live.update(matches)
        else:
            yield program.finding(
                RULE, module, line, col,
                f"emitted counter '{name}' matches no catalogue entry in "
                f"'{catalog_module.name}'",
            )
    for pattern, line, col in patterns:
        if pattern not in live:
            yield program.finding(
                RULE, catalog_module, line, col,
                f"catalogue entry '{pattern}' matches no emit site "
                f"anywhere in the program (dead entry)",
            )
