"""async-discipline: no blocking calls inside coroutine bodies.

One event loop drives all of a host pool's requests, so a single
blocking call inside a coroutine stalls every in-flight request the
loop holds — the failure is silent, just a pool that mysteriously
serializes. Inside any ``async def``
under ``src/repro`` this checker flags:

- ``time.sleep(...)`` — blocks the loop thread; coroutines back off
  with ``await asyncio.sleep(...)``;
- anything reached through ``http.client`` — the blocking HTTP
  transport (the loop-native transport is
  :class:`repro.service.aio.AsyncServiceClient`, which never touches
  ``http.client``);
- :class:`~repro.service.client.ServiceClient`'s request methods
  (``evaluate``, ``evaluate_batch``, ``healthz``, ``cache_*``) called
  on a sync client: a local name bound from ``ServiceClient(...)`` or
  an attribute path ending in ``.client`` / ``.probe_client`` (the
  usual spellings of a sync client held as an attribute). The async
  siblings ``.aio_client`` / ``.aio_probe`` answer to the same method
  names and are exempt by construction.

Nested ``def``s inside a coroutine are skipped (they are values, not
loop-thread code until someone calls them); nested ``async def``s are
checked in their own right. A coroutine that must hand off to blocking
code deliberately (e.g. via a thread-pool wrapper) carries
``# repro-lint: allow(async-discipline)`` on the offending line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Set

from repro.lint.core import Checker, Finding, SourceFile, register

#: The sync client's blocking request surface. The async client answers
#: to the same names on purpose (one shared protocol, two socket
#: layers), so receiver spelling — not the method name — decides what
#: gets flagged.
BLOCKING_METHODS = {
    "evaluate",
    "evaluate_batch",
    "healthz",
    "cache_get",
    "cache_put",
    "cache_size",
    "cache_list",
}

#: Attribute spellings taken to denote a sync :class:`ServiceClient`
#: (bare ``client = ServiceClient(...)`` locals are collected
#: separately).
SYNC_CLIENT_ATTRS = {"client", "probe_client"}


def _module_aliases(tree: ast.AST) -> Dict[str, str]:
    """Local name -> dotted module/function it denotes, for the two
    blocking modules this checker knows (``time``, ``http.client``)."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("time", "http", "http.client"):
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:  # `import http.client` binds the name `http`
                        head = alias.name.split(".")[0]
                        aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        aliases[alias.asname or alias.name] = "time.sleep"
            elif node.module == "http":
                for alias in node.names:
                    if alias.name == "client":
                        aliases[alias.asname or "client"] = "http.client"
            elif node.module == "http.client":
                for alias in node.names:
                    if alias.name != "*":
                        aliases[alias.asname or alias.name] = (
                            f"http.client.{alias.name}"
                        )
    return aliases


def _dotted(node: ast.AST) -> str:
    """``host.client.evaluate`` -> "host.client.evaluate"; "" if the
    expression is not a plain dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    parts.append(node.id)
    return ".".join(reversed(parts))


def _sync_client_locals(func: ast.AsyncFunctionDef) -> Set[str]:
    """Names bound from ``ServiceClient(...)`` inside the coroutine."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if not isinstance(value, ast.Call):
            continue
        ctor = _dotted(value.func)
        if ctor == "ServiceClient" or ctor.endswith(".ServiceClient"):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _coroutine_body(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk ``func``'s body without descending into nested ``def``s
    (of either kind — nested ``async def``s get their own pass)."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class AsyncDisciplineChecker(Checker):
    name = "async-discipline"
    description = (
        "coroutines must not call blocking transports (time.sleep, "
        "http.client, sync ServiceClient methods)"
    )

    def relevant(self, sf: SourceFile) -> bool:
        return "repro" in sf.parts

    def check_file(self, sf: SourceFile) -> Iterator[Finding]:
        aliases = _module_aliases(sf.tree)
        for func in ast.walk(sf.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            client_locals = _sync_client_locals(func)
            for node in _coroutine_body(func):
                if not isinstance(node, ast.Call):
                    continue
                finding = self._classify(sf, func, node, aliases, client_locals)
                if finding is not None:
                    yield finding

    def _classify(
        self,
        sf: SourceFile,
        func: ast.AsyncFunctionDef,
        node: ast.Call,
        aliases: Dict[str, str],
        client_locals: Set[str],
    ):
        dotted = _dotted(node.func)
        if dotted:
            head, _, rest = dotted.partition(".")
            target = aliases.get(head)
            if target is not None:
                full = f"{target}.{rest}" if rest else target
                if full == "time.sleep":
                    return sf.finding(
                        self.name,
                        node,
                        f"time.sleep(...) inside coroutine {func.name!r} "
                        "blocks the dispatch loop — use "
                        "`await asyncio.sleep(...)`",
                    )
                if full.startswith("http.client"):
                    return sf.finding(
                        self.name,
                        node,
                        f"blocking http.client transport inside coroutine "
                        f"{func.name!r} — the loop-native transport is "
                        "repro.service.aio.AsyncServiceClient",
                    )
        fn = node.func
        if isinstance(fn, ast.Attribute) and fn.attr in BLOCKING_METHODS:
            receiver = _dotted(fn.value)
            last = receiver.rsplit(".", 1)[-1] if receiver else ""
            if last in SYNC_CLIENT_ATTRS or receiver in client_locals:
                return sf.finding(
                    self.name,
                    node,
                    f"sync ServiceClient call {receiver}.{fn.attr}(...) "
                    f"inside coroutine {func.name!r} blocks the dispatch "
                    "loop — use the aio_client/aio_probe sibling (or "
                    "hand off to a thread and suppress with "
                    "`# repro-lint: allow(async-discipline)`)",
                )
        return None
