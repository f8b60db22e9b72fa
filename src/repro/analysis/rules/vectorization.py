"""Vectorization rules.

The batched kernels in :mod:`repro.memsim.kernels` exist to replace
per-element Python with NumPy array expressions, and the columnar result
path exists to keep whole sweeps structure-of-arrays from kernel to
consumer; scalar loops or per-point object churn creeping back into
those modules silently erode the speedup the vector backend promises.
Two rules guard the hot paths, confined to the configured
``vector-paths`` (the kernels, the DES engines, and the sweep layer):

* **SIM106 scalar-loop-over-array** — an element-wise Python loop where
  an array expression would do: a ``for`` iterating a NumPy array (or
  ``range(len(arr))`` over one, or a ``np.*`` call result), a ``while``
  whose condition indexes into an array, and ``list.pop(0)`` inside a
  loop body (O(n) per removal — ``collections.deque.popleft()`` is O(1);
  the engine's retirement queue regression in
  ``tests/memsim/test_engine_retirement.py`` pins the fix).
* **SIM108 point-materialization** — per-point result materialization
  on a column batch inside a loop or comprehension: iterating a
  :class:`~repro.memsim.kernels.ResultColumns` batch (or its
  ``.views()``) row-by-row, or calling ``.view()``/``.views()`` on one
  inside a loop body. Each view constructs a ``BandwidthResult`` — the
  ~4.7 µs/point floor the columnar refactor removed. Read the columns
  (``gbps``, ``total_gbps()``, ``point_total_gbps()``) or move rows
  with ``append_from``/``extend`` instead; a single ``.views()`` at an
  API boundary (outside any loop) is the sanctioned escape hatch.

Array-ness and batch-ness are inferred locally and conservatively: a
name counts as a NumPy array only when the module assigns it from a
``np.*``/``numpy.*`` call, and as a column batch only when assigned
from one of the known batch producers (``ResultColumns(...)``,
``from_results``, ``evaluate_batch_columns``, ``evaluate_grid_columns``,
``run_columns``, ...). Loops the kernels legitimately need (per-stream
setup, fixed-point iteration over epochs) iterate plain Python
structures and never match; a reasoned exception belongs in the simlint
baseline or behind a suppression comment.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.finding import Finding, Rule
from repro.analysis.registry import FileContext, register

SCALAR_LOOP = Rule(
    code="SIM106",
    name="scalar-loop-over-array",
    summary="element-wise Python loop over a NumPy array in a kernel path",
)

POINT_MATERIALIZATION = Rule(
    code="SIM108",
    name="point-materialization",
    summary="per-point result materialization on a columnar batch path",
)

#: Call names that produce a ``ResultColumns`` batch, mapped to which
#: assignment target receives the batch: ``None`` for a plain
#: ``batch = producer(...)``, else the tuple-unpack index of the batch
#: (``evaluate_batch_columns`` returns ``(columns, emit)``;
#: ``run_columns``/``run_grid_columns`` return ``(labels, columns)``).
_BATCH_PRODUCERS: dict[str, int | None] = {
    "ResultColumns": None,
    "from_results": None,
    "evaluate_grid_columns": None,
    "evaluate_batch_columns": 0,
    "evaluate_points_columns": 0,
    "run_columns": -1,
    "run_grid_columns": -1,
}

#: Heads recognised as the NumPy module in dotted call targets.
_NP_HEADS = ("np", "numpy")


def _dotted(node: ast.expr) -> str | None:
    """Render ``a.b.c`` call targets; ``None`` for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_numpy_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    dotted = _dotted(node.func)
    return dotted is not None and dotted.split(".")[0] in _NP_HEADS


def _array_names(module: ast.Module) -> frozenset[str]:
    """Names assigned from a ``np.*`` call anywhere in the module."""
    names: set[str] = set()
    for node in ast.walk(module):
        value: ast.expr | None
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            value, targets = node.value, [node.target]
        else:
            continue
        if value is None or not _is_numpy_call(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
    return frozenset(names)


def _is_range_len_of(node: ast.expr, arrays: frozenset[str]) -> bool:
    """``range(len(arr))`` where ``arr`` is a tracked array name."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id != "range" or len(node.args) != 1:
        return False
    inner = node.args[0]
    return (
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id == "len"
        and len(inner.args) == 1
        and isinstance(inner.args[0], ast.Name)
        and inner.args[0].id in arrays
    )


def _subscripted_arrays(node: ast.expr, arrays: frozenset[str]) -> Iterator[str]:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Subscript)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in arrays
        ):
            yield sub.value.id


def _pop_zero_calls(body: list[ast.stmt]) -> Iterator[ast.Call]:
    """``something.pop(0)`` calls anywhere under ``body``."""
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "pop"
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == 0
            ):
                yield node


@register(SCALAR_LOOP)
def check_scalar_loop(module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
    if not ctx.config.in_vector_scope(ctx.relpath):
        return
    arrays = _array_names(module)
    seen_pops: set[ast.Call] = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            it = node.iter
            if isinstance(it, ast.Name) and it.id in arrays:
                yield ctx.finding(
                    SCALAR_LOOP, node,
                    f"loop iterates NumPy array '{it.id}' element-wise; "
                    "replace the loop body with an array expression",
                )
            elif _is_range_len_of(it, arrays):
                name = it.args[0].args[0].id  # type: ignore[attr-defined]
                yield ctx.finding(
                    SCALAR_LOOP, node,
                    f"loop indexes NumPy array '{name}' element-wise via "
                    "range(len(...)); replace with an array expression",
                )
            elif _is_numpy_call(it):
                yield ctx.finding(
                    SCALAR_LOOP, node,
                    "loop iterates a NumPy call result element-wise; "
                    "replace the loop body with an array expression",
                )
        elif isinstance(node, ast.While):
            for name in _subscripted_arrays(node.test, arrays):
                yield ctx.finding(
                    SCALAR_LOOP, node,
                    f"while-loop steps through NumPy array '{name}' one "
                    "element per iteration; replace with an array expression",
                )
                break
        else:
            continue
        for call in _pop_zero_calls(node.body + getattr(node, "orelse", [])):
            if call in seen_pops:
                continue
            seen_pops.add(call)
            yield ctx.finding(
                SCALAR_LOOP, call,
                "'.pop(0)' inside a loop shifts the whole list each "
                "iteration (O(n^2) drain); use collections.deque.popleft()",
            )


def _batch_names(module: ast.Module) -> frozenset[str]:
    """Names assigned from a known column-batch producer call."""
    names: set[str] = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AnnAssign):
            value, targets = node.value, [node.target]
        else:
            continue
        if not isinstance(value, ast.Call):
            continue
        dotted = _dotted(value.func)
        if dotted is None:
            continue
        position = _BATCH_PRODUCERS.get(dotted.split(".")[-1], "absent")
        if position == "absent":
            continue
        for target in targets:
            if position is None and isinstance(target, ast.Name):
                names.add(target.id)
            elif (
                position is not None
                and isinstance(target, ast.Tuple)
                and isinstance(position, int)
                and -len(target.elts) <= position < len(target.elts)
                and isinstance(target.elts[position], ast.Name)
            ):
                names.add(target.elts[position].id)  # type: ignore[attr-defined]
    return frozenset(names)


def _view_calls(nodes: list[ast.AST], batches: frozenset[str]) -> Iterator[ast.Call]:
    """``batch.view(...)`` / ``batch.views()`` calls anywhere under ``nodes``."""
    for stmt in nodes:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("view", "views")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in batches
            ):
                yield node


_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@register(POINT_MATERIALIZATION)
def check_point_materialization(
    module: ast.Module, ctx: FileContext
) -> Iterator[Finding]:
    if not ctx.config.in_vector_scope(ctx.relpath):
        return
    batches = _batch_names(module)
    if not batches:
        return
    seen: set[ast.Call] = set()
    for node in ast.walk(module):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            it = node.iter
            if isinstance(it, ast.Name) and it.id in batches:
                yield ctx.finding(
                    POINT_MATERIALIZATION, node,
                    f"loop iterates column batch '{it.id}' row-by-row; "
                    "read the columns (total_gbps(), gbps) or move rows "
                    "with append_from/extend instead",
                )
            elif (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Attribute)
                and it.func.attr == "views"
                and isinstance(it.func.value, ast.Name)
                and it.func.value.id in batches
            ):
                seen.add(it)
                yield ctx.finding(
                    POINT_MATERIALIZATION, node,
                    f"loop materializes every point of column batch "
                    f"'{it.func.value.id}' via .views(); read the columns "
                    "directly and keep views for the API boundary",
                )
            body: list[ast.AST] = list(node.body + node.orelse)
        elif isinstance(node, ast.While):
            body = list(node.body + node.orelse)
        elif isinstance(node, _COMPREHENSIONS):
            body = [node]
        else:
            continue
        for call in _view_calls(body, batches):
            if call in seen:
                continue
            seen.add(call)
            target = call.func.value.id  # type: ignore[attr-defined]
            yield ctx.finding(
                POINT_MATERIALIZATION, call,
                f"'.{call.func.attr}()' on column batch '{target}' inside "  # type: ignore[attr-defined]
                "a loop materializes per-point results; read "
                "point_total_gbps()/gbps or hoist the materialization to "
                "the API boundary",
            )
