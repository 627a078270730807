"""Per-file semantic context for the analyzer rules.

One :class:`FileContext` is built per linted file.  It owns the parsed
AST plus the light-weight semantic facts every rule needs:

* an **import table** mapping local names to dotted qualified names, so
  a rule can recognise ``from ..engine import Engine`` and
  ``import networkx as nx`` alike;
* **class summaries** (:class:`ClassInfo`) with one-level base
  resolution, which is how rules identify ``Engine`` and
  ``NodeProtocol`` subclasses without importing anything;
* the parsed ``# repro: allow[RULE-ID] reason`` **suppressions**;
* shared typing heuristics (which names in a function refer to an
  engine, to a :class:`~repro.simulator.protocol.ProtocolApi`, ...).

Everything here is purely syntactic -- the analyzer never imports the
code under review, so it can lint fixture trees and broken branches.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding, Suppression, SUPPRESSION_PATTERN

#: Conventional parameter names that refer to the simulation kernel.
ENGINE_PARAM_NAMES = frozenset({"network", "engine"})

#: Conventional parameter names that refer to the restricted protocol API.
API_PARAM_NAMES = frozenset({"api"})


class ClassInfo:
    """Summary of one ``class`` statement."""

    def __init__(self, context: "FileContext", node: ast.ClassDef) -> None:
        self.node = node
        self.name = node.name
        self.base_quals: Tuple[str, ...] = tuple(
            qual for qual in (context.qualify(base) for base in node.bases) if qual
        )
        self.methods: Dict[str, ast.FunctionDef] = {}
        for statement in node.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods.setdefault(statement.name, statement)
        self.engine_attrs = self._collect_engine_attrs(context)

    def _has_base(self, suffix: str) -> bool:
        bare = suffix.rsplit(".", 1)[-1]
        return any(qual == bare or qual.endswith(suffix) for qual in self.base_quals)

    @property
    def is_engine_subclass(self) -> bool:
        return self._has_base(".Engine") or self._has_base("engine.Engine")

    @property
    def is_protocol_subclass(self) -> bool:
        return self._has_base(".NodeProtocol") or self._has_base("protocol.NodeProtocol")

    def _collect_engine_attrs(self, context: "FileContext") -> Set[str]:
        """``self.X`` attribute names assigned from an engine in ``__init__``."""
        init = self.methods.get("__init__")
        if init is None:
            return set()
        engine_params = engine_param_names(init, context)
        attrs: Set[str] = set()
        for statement in ast.walk(init):
            if not isinstance(statement, ast.Assign):
                continue
            if not isinstance(statement.value, ast.Name):
                continue
            if statement.value.id not in engine_params:
                continue
            for target in statement.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
        return attrs


class FileContext:
    """Parsed file plus the semantic facts shared by every rule."""

    def __init__(
        self,
        path: Path,
        source: str,
        *,
        display_path: Optional[str] = None,
        is_protocol_scope: bool = False,
        is_metrics_owner: bool = False,
    ) -> None:
        self.path = path
        self.display_path = display_path or str(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.is_protocol_scope = is_protocol_scope
        self.is_metrics_owner = is_metrics_owner
        self.module = _derive_module(path)
        self.imports = self._build_imports()
        self.classes: List[ClassInfo] = [
            ClassInfo(self, node)
            for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        ]
        self.suppressions = self._parse_suppressions()

    # ------------------------------------------------------------------ #
    # name resolution
    # ------------------------------------------------------------------ #

    def _build_imports(self) -> Dict[str, str]:
        table: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        table[top] = top
            elif isinstance(node, ast.ImportFrom):
                module = self._resolve_from_module(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{module}.{alias.name}" if module else alias.name
        return table

    def _resolve_from_module(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module or ""
        # Relative import: resolve against this file's dotted module.
        if not self.module:
            return node.module or ""
        parts = self.module.split(".")
        # ``from .`` inside a module drops the module's own name first.
        anchor = parts[: len(parts) - node.level]
        if node.module:
            anchor.append(node.module)
        return ".".join(anchor)

    def qualify(self, node: ast.AST) -> Optional[str]:
        """Dotted qualified name of a ``Name``/``Attribute`` chain, or ``None``.

        ``Engine`` imported via ``from ..engine import Engine`` in
        ``repro/simulator/primitives/x.py`` qualifies to
        ``repro.simulator.engine.Engine``; an unimported bare name
        qualifies to itself (same-module reference).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    def annotation_quals(self, annotation: Optional[ast.AST]) -> Set[str]:
        """Qualified names of every atom inside an annotation expression."""
        quals: Set[str] = set()
        if annotation is None:
            return quals
        stack: List[ast.AST] = [annotation]
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Name, ast.Attribute)):
                qual = self.qualify(node)
                if qual:
                    quals.add(qual)
                continue
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # String annotation: map its leading segment through the
                # import table ("Engine" -> repro.simulator.engine.Engine).
                text = node.value.strip().split("[", 1)[0]
                head, _, rest = text.partition(".")
                resolved = self.imports.get(head, head)
                quals.add(f"{resolved}.{rest}" if rest else resolved)
                continue
            stack.extend(ast.iter_child_nodes(node))
        return quals

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #

    def functions(self) -> Iterator[Tuple[ast.FunctionDef, Optional[ClassInfo]]]:
        """Every function/method with its enclosing class (outermost first)."""
        class_of: Dict[ast.AST, ClassInfo] = {info.node: info for info in self.classes}

        def visit(node: ast.AST, owner: Optional[ClassInfo]) -> Iterator:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    yield from visit(child, class_of[child])
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child, owner
                    yield from visit(child, owner)
                else:
                    yield from visit(child, owner)

        yield from visit(self.tree, None)

    def finding(self, node: ast.AST, rule_id: str, rule_name: str, message: str) -> Finding:
        return Finding(
            file=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            rule_name=rule_name,
            message=message,
        )

    # ------------------------------------------------------------------ #
    # suppressions
    # ------------------------------------------------------------------ #

    def _parse_suppressions(self) -> List[Suppression]:
        """Parse ``# repro: allow[...]`` comments via real comment tokens.

        Tokenizing (rather than a per-line regex) keeps documentation
        that merely *mentions* the suppression syntax -- like this
        docstring -- from being treated as a suppression.
        """
        suppressions: List[Suppression] = []
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                token for token in tokens if token.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:
            comments = []
        for token in comments:
            match = SUPPRESSION_PATTERN.search(token.string)
            if not match:
                continue
            index = token.start[0]
            ids = tuple(part.strip() for part in match.group(1).split(",") if part.strip())
            reason = match.group(2).strip()
            before_comment = self.lines[index - 1][: token.start[1]].strip()
            if before_comment:
                target = index
            else:
                target = _next_code_line(self.lines, index)
            suppressions.append(
                Suppression(line=index, target_line=target, rule_ids=ids, reason=reason)
            )
        return suppressions


def _next_code_line(lines: List[str], comment_line: int) -> int:
    """First line after ``comment_line`` holding code (skip blanks/comments)."""
    for offset, line in enumerate(lines[comment_line:], start=comment_line + 1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            return offset
    return comment_line


def _derive_module(path: Path) -> str:
    """Dotted module name derived from the package layout on disk."""
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------- #
# shared typing heuristics
# ---------------------------------------------------------------------- #


def _params(func: ast.FunctionDef) -> List[ast.arg]:
    args = func.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]


def _params_matching(
    func: ast.FunctionDef,
    context: FileContext,
    conventional: frozenset,
    type_suffixes: Tuple[str, ...],
) -> Set[str]:
    names: Set[str] = set()
    for arg in _params(func):
        if arg.arg in conventional:
            names.add(arg.arg)
            continue
        for qual in context.annotation_quals(arg.annotation):
            bare = qual.rsplit(".", 1)[-1]
            if any(qual.endswith(suffix) or bare == suffix.rsplit(".", 1)[-1]
                   for suffix in type_suffixes):
                names.add(arg.arg)
                break
    return names


def engine_param_names(func: ast.FunctionDef, context: FileContext) -> Set[str]:
    """Parameters of ``func`` that refer to a simulation engine."""
    return _params_matching(func, context, ENGINE_PARAM_NAMES, (".Engine", "engine.Engine"))


def api_param_names(func: ast.FunctionDef, context: FileContext) -> Set[str]:
    """Parameters of ``func`` that refer to the restricted ProtocolApi."""
    return _params_matching(func, context, API_PARAM_NAMES, (".ProtocolApi",))


def is_engine_expr(
    node: ast.AST,
    context: FileContext,
    func: ast.FunctionDef,
    owner: Optional[ClassInfo],
) -> bool:
    """True when ``node`` refers to an engine in ``func``'s scope.

    Recognised shapes: a parameter named/annotated as an engine, and
    ``self.<attr>`` where ``__init__`` stored an engine under ``attr``.
    """
    if isinstance(node, ast.Name):
        return node.id in engine_param_names(func, context)
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and owner is not None
    ):
        return node.attr in owner.engine_attrs
    return False
