"""wire-schema: client and server must agree on the JSON keys.

The evaluation service speaks hand-rolled JSON over HTTP, so nothing
type-checks the contract: a key the client sends that the server never
parses (or a response key the client reads that the server never
emits) fails only at runtime, possibly only under one dispatch mode.
This checker extracts both sides of the schema from the AST of the
``service/`` modules and enforces containment:

- every key the client side puts in a request body must be parsed
  somewhere server-side (``request["k"]`` / ``request.get("k")`` in
  ``server.py`` or ``wire.py``). The endpoint bodies live once in the
  shared client protocol, ``protocol.py``; the two socket layers,
  ``client.py`` and ``aio.py``, are scanned too so a body built there
  cannot slip past;
- every key a client — or a shared response parser in ``wire.py`` —
  reads out of a parsed response must be produced somewhere
  server-side (a ``_reply(...)`` payload or the ``health()``
  inventory).

The reverse directions are deliberately open: servers may emit keys
old clients ignore, and may parse optional keys — that is how the
wire format stays forward-compatible.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.lint.core import Checker, Finding, Project, SourceFile, register


#: Calls whose dict-literal arguments are request bodies.
_PAYLOAD_CALLS = ("_checked", "_request", "checked_flow", "request_flow")


def _service_file(project: Project, basename: str) -> Optional[SourceFile]:
    for sf in project.library_files():
        if "service" in sf.parts and sf.display.endswith(f"/{basename}"):
            return sf
    return None


def _dict_keys(node: ast.Dict) -> List[str]:
    return [
        key.value
        for key in node.keys
        if isinstance(key, ast.Constant) and isinstance(key.value, str)
    ]


def _client_sent_keys(sf: SourceFile) -> Dict[str, int]:
    """Key -> first line where the client writes it into a request
    body: dict literals named ``request`` (plus their later
    ``request["k"] = ...`` additions) and dict literals passed
    directly as a request payload — to a ``_checked``/``_request``
    method or a ``checked_flow``/``request_flow`` protocol call."""
    keys: Dict[str, int] = {}

    def note(key: str, lineno: int) -> None:
        keys.setdefault(key, lineno)

    for node in ast.walk(sf.tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            # ``request = {...}`` and the annotated
            # ``request: Dict[str, Any] = {...}`` alike.
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            named_request = any(
                isinstance(t, ast.Name) and t.id == "request" for t in targets
            )
            if named_request and isinstance(node.value, ast.Dict):
                for key in _dict_keys(node.value):
                    note(key, node.lineno)
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "request"
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    note(target.slice.value, node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name in _PAYLOAD_CALLS:
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        for key in _dict_keys(arg):
                            note(key, arg.lineno)
    return keys


def _read_keys(sf: SourceFile, receiver: str) -> Dict[str, int]:
    """Key -> line for ``<receiver>["k"]`` / ``<receiver>.get("k")``
    reads, plus ``.get("k")`` chained directly on a call result."""
    keys: Dict[str, int] = {}
    for node in ast.walk(sf.tree):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == receiver
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and isinstance(getattr(node, "ctx", None), ast.Load)
        ):
            keys.setdefault(node.slice.value, node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                base = func.value
                if (isinstance(base, ast.Name) and base.id == receiver) or (
                    receiver == "parsed" and isinstance(base, ast.Call)
                ):
                    keys.setdefault(node.args[0].value, node.lineno)
    return keys


def _server_produced_keys(sf: SourceFile) -> List[str]:
    """String keys of every ``_reply(...)`` dict payload plus every
    dict literal inside a function named ``health``."""
    produced: List[str] = []
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else ""
            )
            if name == "_reply":
                for arg in node.args:
                    if isinstance(arg, ast.Dict):
                        produced.extend(_dict_keys(arg))
        elif isinstance(node, ast.FunctionDef) and node.name == "health":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Dict):
                    produced.extend(_dict_keys(sub))
    return produced


@register
class WireSchemaChecker(Checker):
    name = "wire-schema"
    description = (
        "JSON keys the service client sends/reads must be keys the "
        "server parses/produces"
    )

    def check(self, project: Project) -> Iterator[Finding]:
        # The shared protocol builds every request body; both socket
        # layers are held to the identical schema containment too.
        clients = [
            sf
            for sf in (
                _service_file(project, "protocol.py"),
                _service_file(project, "client.py"),
                _service_file(project, "aio.py"),
            )
            if sf is not None
        ]
        server = _service_file(project, "server.py")
        wire = _service_file(project, "wire.py")
        if not clients or server is None:
            return  # need both ends of the wire to compare
        parsed_keys: Dict[str, int] = {}
        produced: List[str] = []
        for sf in (server, wire):
            if sf is None:
                continue
            parsed_keys.update(_read_keys(sf, "request"))
            produced.extend(_server_produced_keys(sf))
        produced_set = set(produced)
        for client in clients:
            sent = _client_sent_keys(client)
            for key, lineno in sorted(sent.items(), key=lambda kv: kv[1]):
                if key not in parsed_keys:
                    yield Finding(
                        self.name,
                        client.display,
                        lineno,
                        f"client sends request key '{key}' that the "
                        "server never parses — drift between "
                        f"{client.display.rsplit('/', 1)[-1]} and "
                        "server.py/wire.py",
                    )
            # Response-key reads: the shared wire.py parsers read most
            # response keys on behalf of both clients, so collect the
            # client's own reads plus wire.py's.
            reads = dict(_read_keys(client, "parsed"))
            for key, lineno in sorted(reads.items(), key=lambda kv: kv[1]):
                if key not in produced_set:
                    yield Finding(
                        self.name,
                        client.display,
                        lineno,
                        f"client reads response key '{key}' that the "
                        "server never produces",
                    )
        if wire is not None:
            for key, lineno in sorted(
                _read_keys(wire, "parsed").items(), key=lambda kv: kv[1]
            ):
                if key not in produced_set:
                    yield Finding(
                        self.name,
                        wire.display,
                        lineno,
                        f"shared response parser reads key '{key}' that "
                        "the server never produces",
                    )
