"""Transport-hygiene rule: every wire read needs a frame-size bound.

The serving layer speaks newline-framed JSON over asyncio streams. ``StreamReader.readline``
honours the stream's ``limit`` — but only if the stream was *created*
with one sized to the protocol's frames; the 64 KiB default silently
truncates legitimate large frames, and a raw ``read()``/``recv()``
accumulation loop has no bound at all, so one peer that never sends a
newline (or never stops sending) grows the buffer without limit.

* **SIM110 unbounded-read** — one of three shapes inside the configured
  ``transport-paths``:

  1. ``asyncio.open_connection(...)`` / ``asyncio.start_server(...)`` /
     ``asyncio.StreamReader(...)`` without an explicit ``limit=``
     keyword — the stream's reads are bounded only by the default,
     which no protocol here fits under;
  2. a zero-argument ``.read()`` method call — read-to-EOF with no
     size bound;
  3. a ``while`` loop growing a buffer via ``buf += x.recv(...)`` or
     ``buf += x.read(...)`` with no ``len(buf)`` check in the loop's
     test or body — an accumulation loop with no frame-size bound.

Forwarded limits count: ``open_connection(host, port, limit=n)`` is fine
whatever ``n`` is — the rule checks that a bound *exists*, it does not
guess protocol sizes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.finding import Finding, Rule
from repro.analysis.registry import FileContext, register

UNBOUNDED_READ = Rule(
    code="SIM110",
    name="unbounded-read",
    summary="transport read without a frame-size bound",
)

#: Stream factories that accept (and should be given) a ``limit=``.
_LIMIT_FACTORIES = frozenset(
    {
        "asyncio.open_connection",
        "asyncio.start_server",
        "asyncio.StreamReader",
    }
)

#: Method names that pull bytes off a transport.
_RECV_METHODS = frozenset({"read", "recv", "recv_into", "readline"})


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


def _has_limit_kwarg(call: ast.Call) -> bool:
    return any(kw.arg == "limit" for kw in call.keywords)


def _is_recv_call(node: ast.expr) -> bool:
    """Whether ``node`` is a ``x.recv(...)`` / ``x.read(...)`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _RECV_METHODS
    )


def _mentions_len_of(name: str, node: ast.AST) -> bool:
    """Whether ``len(<name>)`` appears anywhere under ``node``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
            and len(sub.args) == 1
            and isinstance(sub.args[0], ast.Name)
            and sub.args[0].id == name
        ):
            return True
    return False


def _accumulation_findings(
    loop: ast.While, ctx: FileContext
) -> Iterator[Finding]:
    """Flag ``buf += x.recv(...)`` loops with no ``len(buf)`` bound."""
    for node in ast.walk(loop):
        if not isinstance(node, ast.AugAssign):
            continue
        if not isinstance(node.op, ast.Add):
            continue
        if not isinstance(node.target, ast.Name):
            continue
        if not _is_recv_call(node.value):
            continue
        buf = node.target.id
        if _mentions_len_of(buf, loop):
            continue
        yield ctx.finding(
            UNBOUNDED_READ, node,
            f"receive loop grows '{buf}' without a frame-size bound; "
            f"check len({buf}) against a limit (or use a limited "
            "StreamReader)",
        )


@register(UNBOUNDED_READ)
def check_unbounded_read(module: ast.Module, ctx: FileContext) -> Iterator[Finding]:
    if not ctx.config.in_transport_scope(ctx.relpath):
        return
    for node in ast.walk(module):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in _LIMIT_FACTORIES and not _has_limit_kwarg(node):
                yield ctx.finding(
                    UNBOUNDED_READ, node,
                    f"'{dotted}(...)' without limit= leaves reads bounded "
                    "only by the 64 KiB default; pass the protocol's "
                    "max frame size",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "read"
                and not node.args
                and not node.keywords
            ):
                yield ctx.finding(
                    UNBOUNDED_READ, node,
                    "zero-argument '.read()' reads to EOF with no bound; "
                    "pass a size (or read line-framed via a limited "
                    "StreamReader)",
                )
        elif isinstance(node, ast.While):
            yield from _accumulation_findings(node, ctx)
