"""Static view of the component registry, extracted from source ASTs.

RA004 validates every ``PipelineSpec`` string literal in the tree, but
the checker must run before numpy/scipy are installed — so it cannot
import :mod:`repro.pipeline.registry` and read the live registry.
Instead this module re-derives the component universe from the same
declarations the runtime reads:

* ``@register("name", family=..., ...)`` decorators under
  ``src/repro/reordering/`` (reorderings);
* ``@register_clustering("name")`` decorators under
  ``src/repro/clustering/`` (clusterings);
* ``ComponentInfo(name=..., kind="kernel", requires_clustering=...)``
  calls under ``src/repro/pipeline/`` (kernels);
* class-level ``name = "..."`` attributes under ``src/repro/backends/``
  (backends), with each class's ``supported_kernels`` property: a
  returned tuple literal lists the kernels the backend runs, ``return
  self.<param>.supported_kernels`` delegates to the backend named by a
  constructor parameter (``sharded``'s ``inner``), and no override
  means every kernel.

The spec validator then re-implements the string grammar of
:mod:`repro.pipeline.spec` — segments joined by ``+``, one optional
``@backend`` suffix, ``name[:params]`` segments with positional-then-
named params, kinds resolved by the disjoint name namespaces, and the
backend–kernel compatibility gate — without building anything.
``tests/test_analysis.py`` pins the static universe against the live
registry so the two cannot drift silently.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ComponentUniverse", "load_universe", "validate_spec", "spec_shaped"]

#: Spec-segment spellings of "no clustering" (mirrors pipeline.spec).
NONE_NAMES = ("none", "csr")


@dataclass
class ComponentUniverse:
    """Component names by kind, plus the tags RA004 checks."""

    reorderings: dict[str, dict] = field(default_factory=dict)  # name -> decorator keywords
    clusterings: set = field(default_factory=set)
    kernels: dict[str, bool] = field(default_factory=dict)  # name -> requires_clustering
    backends: set = field(default_factory=set)
    #: backend -> kernel names it runs (``None`` = every kernel).
    backend_kernels: dict[str, tuple | None] = field(default_factory=dict)
    #: composite backend -> ``(param, default)``: it runs what the
    #: backend named by that constructor parameter runs.
    backend_inner: dict[str, tuple[str, str | None]] = field(default_factory=dict)

    def supported_kernels(self, backend: str, params: dict[str, str]) -> tuple | None:
        """Kernel names ``backend`` runs under ``params`` (``None`` =
        every kernel, or unknown), following a composite to its inner."""
        if backend not in self.backend_inner:
            return self.backend_kernels.get(backend)
        param, default = self.backend_inner[backend]
        inner = (params.get(param) or default or "").partition(":")[0].strip()
        if inner == backend or inner not in self.backends:
            return None
        return self.supported_kernels(inner, {})

    def kind_of(self, name: str) -> str | None:
        if name in self.reorderings:
            return "reordering"
        if name in self.clusterings:
            return "clustering"
        if name in self.kernels:
            return "kernel"
        if name in self.backends:
            return "backend"
        return None

    @property
    def empty(self) -> bool:
        return not (self.reorderings or self.clusterings or self.kernels or self.backends)


def _const_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _iter_trees(root: Path):
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        try:
            yield path, ast.parse(path.read_text(encoding="utf-8", errors="replace"))
        except SyntaxError:
            continue


def load_universe(repo_root: Path) -> ComponentUniverse:
    """Extract the registry from ``repo_root/src/repro`` source."""
    src = Path(repo_root) / "src" / "repro"
    uni = ComponentUniverse()
    for sub, handler in (
        ("reordering", _scan_reorderings),
        ("clustering", _scan_clusterings),
        ("pipeline", _scan_kernels),
        ("backends", _scan_backends),
    ):
        pkg = src / sub
        if pkg.is_dir():
            for _, tree in _iter_trees(pkg):
                handler(tree, uni)
    return uni


def _scan_reorderings(tree: ast.AST, uni: ComponentUniverse) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call) and _call_name(dec) == "register" and dec.args:
                name = _const_str(dec.args[0])
                if name is not None:
                    uni.reorderings[name] = {
                        kw.arg: kw.value for kw in dec.keywords if kw.arg is not None
                    }


def _scan_clusterings(tree: ast.AST, uni: ComponentUniverse) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for dec in node.decorator_list:
            if isinstance(dec, ast.Call) and _call_name(dec) == "register_clustering" and dec.args:
                name = _const_str(dec.args[0])
                if name is not None:
                    uni.clusterings.add(name)


def _scan_kernels(tree: ast.AST, uni: ComponentUniverse) -> None:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and _call_name(node) == "ComponentInfo"):
            continue
        kws = {kw.arg: kw.value for kw in node.keywords if kw.arg is not None}
        if _const_str(kws.get("kind")) != "kernel":
            continue
        name = _const_str(kws.get("name"))
        if name is None:
            continue
        req = kws.get("requires_clustering")
        uni.kernels[name] = bool(
            isinstance(req, ast.Constant) and req.value is True
        )


def _scan_backends(tree: ast.AST, uni: ComponentUniverse) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        name = None
        for stmt in node.body:
            target = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if isinstance(target, ast.Name) and target.id == "name":
                name = (_const_str(value) if value is not None else None) or name
        if not name:
            continue
        uni.backends.add(name)
        methods = {
            stmt.name: stmt for stmt in node.body if isinstance(stmt, ast.FunctionDef)
        }
        fn = methods.get("supported_kernels")
        if fn is None:
            continue  # the base contract: every kernel
        returns = [r.value for r in ast.walk(fn) if isinstance(r, ast.Return) and r.value]
        value = returns[0] if returns else None
        if isinstance(value, (ast.Tuple, ast.List)):
            names = tuple(_const_str(e) for e in value.elts)
            uni.backend_kernels[name] = None if None in names else names
        elif (  # ``return self.<param>.supported_kernels``
            isinstance(value, ast.Attribute)
            and value.attr == "supported_kernels"
            and isinstance(value.value, ast.Attribute)
            and isinstance(value.value.value, ast.Name)
            and value.value.value.id == "self"
        ):
            init = methods.get("__init__")
            defaults = {} if init is None else {
                a.arg: _const_str(d)
                for a, d in zip(init.args.kwonlyargs, init.args.kw_defaults)
                if d is not None
            }
            uni.backend_inner[name] = (value.value.attr, defaults.get(value.value.attr))


# ----------------------------------------------------------------------
# Spec-literal validation (grammar of repro.pipeline.spec, no build)
# ----------------------------------------------------------------------
_SEGMENT_RE = re.compile(r"[A-Za-z_]\w*(?::[^+@\s]*)?")
_SHAPE_RE = re.compile(rf"{_SEGMENT_RE.pattern}(?:\+{_SEGMENT_RE.pattern})*(?:@{_SEGMENT_RE.pattern})?")


def spec_shaped(text: str) -> bool:
    """Whether ``text`` could lexically be a pipeline spec with at least
    one ``+``/``@`` join (single bare words are too ambiguous to lint)."""
    return ("+" in text or "@" in text) and _SHAPE_RE.fullmatch(text) is not None


def _check_params(ptext: str, where: str) -> list[str]:
    if not ptext:
        return []
    errors = []
    seen_named = False
    for tok in ptext.split(","):
        tok = tok.strip()
        if not tok:
            errors.append(f"{where}: empty parameter")
            continue
        if "=" in tok:
            key, _, val = tok.partition("=")
            if not key.strip().isidentifier() or not val.strip():
                errors.append(f"{where}: malformed parameter {tok!r}")
            seen_named = True
        elif seen_named:
            errors.append(f"{where}: positional parameter {tok!r} after a named one")
    return errors


def validate_spec(text: str, uni: ComponentUniverse) -> list[str]:
    """Grammar + registry errors for one spec string (empty = valid)."""
    errors: list[str] = []
    core, at, btext = text.partition("@")
    if at:
        if "@" in btext:
            return [f"spec {text!r} names two backends (one '@' allowed)"]
        bname, _, bptext = btext.strip().partition(":")
        if not bname.strip():
            errors.append(f"spec {text!r}: empty backend after '@'")
        elif bname.strip() not in uni.backends:
            errors.append(
                f"spec {text!r}: unknown backend {bname.strip()!r} "
                f"(registered: {sorted(uni.backends)})"
            )
        errors.extend(_check_params(bptext, f"backend {bname.strip()!r}"))
    segments = [s.strip() for s in core.split("+")] if core.strip() else []
    if not segments and not at:
        return [f"spec {text!r} is empty"]
    by_kind: dict[str, str] = {}
    explicit_none = False
    for seg in segments:
        if not seg:
            errors.append(f"spec {text!r}: empty segment")
            continue
        name, _, ptext = seg.partition(":")
        name = name.strip()
        if name in NONE_NAMES:
            if ptext:
                errors.append(f"spec {text!r}: clustering {name!r} takes no parameters")
            explicit_none = True
            continue
        kind = uni.kind_of(name)
        if kind is None:
            errors.append(f"spec {text!r}: unknown component {name!r}")
            continue
        if kind == "backend":
            errors.append(
                f"spec {text!r}: {name!r} is a backend; select it with '@{name}'"
            )
            continue
        if kind in by_kind:
            errors.append(f"spec {text!r}: names two {kind}s ({by_kind[kind]!r} and {name!r})")
            continue
        by_kind[kind] = name
        errors.extend(_check_params(ptext, f"{kind} {name!r}"))
    if explicit_none and "clustering" in by_kind:
        errors.append(f"spec {text!r}: both names a clustering and 'none'")
    clustering = by_kind.get("clustering")
    kernel = by_kind.get("kernel", "cluster" if clustering else "rowwise")
    if uni.kernels.get(kernel) and clustering is None:
        errors.append(f"spec {text!r}: kernel {kernel!r} requires a clustering")
    if at and bname.strip() in uni.backends and kernel in uni.kernels:
        supported = uni.supported_kernels(bname.strip(), _named_params(bptext))
        if supported is not None and kernel not in supported:
            errors.append(
                f"spec {text!r}: backend {bname.strip()!r} does not support kernel "
                f"{kernel!r} (supported: {list(supported)})"
            )
    return errors


def _named_params(ptext: str) -> dict[str, str]:
    pairs = (tok.partition("=") for tok in ptext.split(",") if "=" in tok)
    return {key.strip(): val.strip() for key, _, val in pairs}
