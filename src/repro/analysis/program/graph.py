"""The :class:`Program`: module table, name resolution, call graph.

Built once per analysis run from every file in scope, then shared by
all whole-program passes. Construction is the only part of the program
layer that touches the filesystem; everything after operates on
:class:`~repro.analysis.program.summary.ModuleSummary` facts.

Name resolution is intentionally *syntactic*: a dotted callee is
resolved through the import table and re-export chains to a function
the program defines, or it is not resolved at all. No type inference,
no duck typing — an unresolved call contributes no call-graph edge,
which makes every pass conservative in the direction of silence rather
than false alarms (DESIGN.md discusses the trade).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

from repro.analysis.config import SimlintConfig
from repro.analysis.finding import Finding, Rule
from repro.analysis.program.cache import CACHE_DIR_NAME, SummaryCache
from repro.analysis.program.summary import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    summarize_module,
)

#: Maximum re-export hops (``from repro.obs import CountersRecorder`` in an
#: ``__init__`` that itself imports from ``recorder``) followed during
#: resolution before giving up.
_MAX_REEXPORT_HOPS = 5


@dataclass
class ModuleInfo:
    """One analyzed module: identity, source, and its summary."""

    name: str
    path: Path
    relpath: str
    source: str
    summary: ModuleSummary
    lines: list[str] = field(init=False)

    def __post_init__(self) -> None:
        self.lines = self.source.splitlines()

    def snippet(self, line: int) -> str:
        """Stripped source text of 1-based ``line`` (empty if out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""


@dataclass(frozen=True)
class FunctionRef:
    """A function in the program: ``module.qual`` plus its facts."""

    full: str  # "repro.memsim.evaluation.evaluate" / "...config.MachineConfig.scaled"
    module: ModuleInfo
    summary: FunctionSummary


@dataclass(frozen=True)
class ClassRef:
    """A class in the program."""

    full: str
    module: ModuleInfo
    summary: ClassSummary


class Program:
    """The whole-program view the interprocedural passes share."""

    def __init__(self, modules: list[ModuleInfo], config: SimlintConfig) -> None:
        self.config = config
        self.modules: dict[str, ModuleInfo] = {m.name: m for m in modules}
        self.functions: dict[str, FunctionRef] = {}
        self.classes: dict[str, ClassRef] = {}
        for info in modules:
            for func in info.summary.functions:
                full = f"{info.name}.{func.qual}"
                self.functions[full] = FunctionRef(full, info, func)
            for cls in info.summary.classes:
                full = f"{info.name}.{cls.name}"
                self.classes[full] = ClassRef(full, info, cls)
        self._edges: dict[str, tuple[str, ...]] | None = None
        self._callers: dict[str, list[tuple[FunctionRef, CallSite]]] | None = None
        # Filled in by build_program; zero for directly-constructed programs.
        self.cache_hits = 0
        self.cache_misses = 0

    # -- construction ------------------------------------------------------

    def finding(self, rule: Rule, module: ModuleInfo, line: int, col: int,
                message: str) -> Finding:
        """Build a :class:`Finding` anchored in ``module``."""
        return Finding(
            path=module.relpath,
            line=line,
            col=col + 1,
            rule=rule.code,
            name=rule.name,
            message=message,
            snippet=module.snippet(line),
        )

    # -- name resolution ---------------------------------------------------

    def resolve_absolute(self, target: str) -> str | None:
        """Resolve an absolute dotted name to a program function/class.

        Follows re-export chains: if the name lands on a module whose
        import table binds the next component, resolution continues at
        the import's target.
        """
        for _ in range(_MAX_REEXPORT_HOPS):
            if target in self.functions or target in self.classes:
                return target
            module = self._longest_module_prefix(target)
            if module is None:
                return None
            remainder = target[len(module.name):].lstrip(".")
            if not remainder:
                return None  # a bare module reference
            qualified = f"{module.name}.{remainder}"
            if qualified in self.functions or qualified in self.classes:
                return qualified
            head = remainder.split(".")[0]
            rest = remainder[len(head):].lstrip(".")
            imported = module.summary.imports.get(head)
            if imported is None:
                return None
            target = f"{imported}.{rest}" if rest else imported
        return None

    def _longest_module_prefix(self, dotted: str) -> ModuleInfo | None:
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            name = ".".join(parts[:end])
            if name in self.modules:
                return self.modules[name]
        return None

    def resolve_call(self, caller: FunctionRef, callee: str) -> str | None:
        """Resolve a call as written in ``caller`` to a program symbol."""
        module = caller.module
        head, _, rest = callee.partition(".")
        if head in ("self", "cls"):
            if "." not in caller.summary.qual or not rest or "." in rest:
                return None
            cls_name = caller.summary.qual.rsplit(".", 1)[0]
            candidate = f"{module.name}.{cls_name}.{rest}"
            return candidate if candidate in self.functions else None
        if head in module.summary.imports:
            base = module.summary.imports[head]
            target = f"{base}.{rest}" if rest else base
            return self.resolve_absolute(target)
        # A module-local function, class, or method of a local class.
        candidate = f"{module.name}.{callee}"
        if candidate in self.functions or candidate in self.classes:
            return candidate
        return None

    def construction_targets(self, full: str) -> tuple[str, ...]:
        """For a class, the methods that run at construction time."""
        if full not in self.classes:
            return ()
        targets = []
        for method in ("__init__", "__post_init__", "__new__"):
            candidate = f"{full}.{method}"
            if candidate in self.functions:
                targets.append(candidate)
        return tuple(targets)

    # -- the call graph ----------------------------------------------------

    def callees(self, full: str) -> tuple[str, ...]:
        """Resolved program functions ``full`` calls (constructors expanded)."""
        if self._edges is None:
            self._build_graph()
        return self._edges.get(full, ())

    def callers_of(self, full: str) -> list[tuple[FunctionRef, CallSite]]:
        """Every resolved call site targeting ``full``."""
        if self._callers is None:
            self._build_graph()
        return self._callers.get(full, [])

    def _build_graph(self) -> None:
        edges: dict[str, tuple[str, ...]] = {}
        callers: dict[str, list[tuple[FunctionRef, CallSite]]] = {}
        for ref in self.functions.values():
            out: list[str] = []
            for call in ref.summary.calls:
                resolved = self.resolve_call(ref, call.callee)
                if resolved is None:
                    continue
                if resolved in self.classes:
                    expanded = self.construction_targets(resolved)
                else:
                    expanded = (resolved,)
                for target in expanded:
                    out.append(target)
                    callers.setdefault(target, []).append((ref, call))
            edges[ref.full] = tuple(out)
        self._edges = edges
        self._callers = callers

    def reachable_from(self, root_patterns: tuple[str, ...]
                       ) -> dict[str, tuple[str, ...]]:
        """Functions reachable from any root, mapped to a witness path.

        ``root_patterns`` are :func:`fnmatch.fnmatch` patterns over full
        function names (``repro.memsim.kernels.*``). The witness path is
        the BFS chain from the matching root — short, stable, and enough
        to explain *why* a function is held to the root's contract.
        """
        paths: dict[str, tuple[str, ...]] = {}
        queue: deque[str] = deque()
        for full in sorted(self.functions):
            if any(fnmatch(full, pattern) for pattern in root_patterns):
                paths[full] = (full,)
                queue.append(full)
        while queue:
            current = queue.popleft()
            for callee in self.callees(current):
                if callee not in paths:
                    paths[callee] = (*paths[current], callee)
                    queue.append(callee)
        return paths


def build_program(
    paths: list[Path],
    config: SimlintConfig,
    *,
    use_cache: bool = True,
) -> Program:
    """Parse/summarize every file under ``paths`` into a :class:`Program`.

    With ``use_cache`` (the default) summaries come from the
    ``.simlint-cache/`` content-hash store when the file's bytes are
    unchanged; files that fail to parse are skipped (the per-file layer
    reports SIM000 for them).
    """
    from repro.analysis.runner import _relpath, iter_python_files

    cache = SummaryCache(config.root / CACHE_DIR_NAME) if use_cache else None
    infos: list[ModuleInfo] = []
    for path in iter_python_files(paths, config):
        source = path.read_text(encoding="utf-8")
        relpath = _relpath(path, config.root)
        summary = cache.get(source, relpath) if cache is not None else None
        if summary is None:
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError:
                continue
            summary = summarize_module(tree, relpath)
            if cache is not None:
                cache.put(source, relpath, summary)
        infos.append(ModuleInfo(
            name=summary.module, path=path, relpath=relpath,
            source=source, summary=summary,
        ))
    program = Program(infos, config)
    program.cache_hits = cache.hits if cache is not None else 0
    program.cache_misses = cache.misses if cache is not None else 0
    return program
