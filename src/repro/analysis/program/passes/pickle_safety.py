"""SIM202: pickle-hostile state in types that cross the cluster wire boundary.

The cluster sweep backend ships configs and grid points *into* workers
and column blocks, errors and counter snapshots *out* — every one of
those objects is pickled. A lambda default, a ``threading.Lock`` field, an
open file handle, or a field referencing a module-level mutable all
either fail to pickle outright (a crash on first cluster sweep) or,
worse, pickle a *copy* so each worker silently diverges from the parent.
Those are the distributed heisenbugs ISSUE 6 exists to prevent.

The pass seeds from the configured boundary types (``pickle_boundary``)
and closes over field annotations: if ``MachineConfig`` carries a
``SystemTopology``, the topology's fields are held to the same contract.
Findings anchor at the offending field so the fix is local.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.finding import Finding, Rule
from repro.analysis.program.summary import unpicklable_annotation
from repro.analysis.registry import register_program

RULE = Rule(
    code="SIM202",
    name="pickle-safety",
    summary="cluster-wire-crossing type holds pickle-hostile state",
)

_KIND_LABEL = {
    "lambda": "holds a lambda (unpicklable)",
    "nested-function": "holds a nested function (unpicklable)",
    "lock": "holds a threading lock (unpicklable)",
    "open-handle": "holds an open file handle (unpicklable)",
    "generator": "holds a generator (unpicklable)",
    "mutable-module-ref": (
        "references module-level mutable state (pickles as a copy; "
        "workers silently diverge)"
    ),
}

#: Annotation tokens that never name a program class worth chasing.
_SKIP_TOKENS = frozenset({
    "str", "int", "float", "bool", "bytes", "object", "None",
    "tuple", "list", "dict", "set", "frozenset", "Optional", "Union",
})


def _annotation_tokens(annotation: str | None) -> list[str]:
    if annotation is None:
        return []
    tokens, current = [], []
    for ch in annotation:
        if ch.isalnum() or ch in "_.":
            current.append(ch)
        else:
            if current:
                tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return [t for t in tokens if t not in _SKIP_TOKENS]


def _resolve_class(program, module, token: str) -> str | None:
    """Resolve an annotation token to a program class, if it names one."""
    head, _, rest = token.partition(".")
    if head in module.summary.imports:
        base = module.summary.imports[head]
        target = f"{base}.{rest}" if rest else base
        resolved = program.resolve_absolute(target)
    else:
        candidate = f"{module.name}.{token}"
        resolved = candidate if candidate in program.classes else None
    if resolved is not None and resolved in program.classes:
        return resolved
    return None


def _closure(program, seeds: tuple[str, ...]) -> dict[str, str]:
    """Boundary classes mapped to the seed that pulls them across."""
    via: dict[str, str] = {}
    stack: list[tuple[str, str]] = []
    for pattern in seeds:
        for full in sorted(program.classes):
            if full == pattern:
                via[full] = full
                stack.append((full, full))
    while stack:
        full, seed = stack.pop()
        cls = program.classes[full]
        for site in cls.summary.fields:
            for token in _annotation_tokens(site.annotation):
                nested = _resolve_class(program, cls.module, token)
                if nested is not None and nested not in via:
                    via[nested] = seed
                    stack.append((nested, seed))
    return via


@register_program(RULE)
def check_pickle_safety(program) -> Iterable[Finding]:
    seeds = tuple(program.config.pickle_boundary)
    if not seeds:
        return
    via = _closure(program, seeds)
    for full in sorted(via):
        cls = program.classes[full]
        seed = via[full]
        crossing = (
            "crosses the cluster wire boundary"
            if seed == full
            else f"crosses the cluster wire boundary via '{seed}'"
        )
        for site in (*cls.summary.fields, *cls.summary.init_attrs):
            reasons: list[str] = []
            if site.kind is not None:
                reasons.append(_KIND_LABEL.get(site.kind, site.kind))
            hostile = unpicklable_annotation(site.annotation)
            if hostile is not None:
                reasons.append(f"is annotated with unpicklable '{hostile}'")
            for reason in reasons:
                yield program.finding(
                    RULE, cls.module, site.line, site.col,
                    f"field '{site.name}' of '{full}' ({crossing}) {reason}",
                )
