"""Print the package's two tracked size numbers as one JSON line.

- ``lines``: ``*.py`` + ``*.c`` lines under ``fsst_like_ray/``.
- ``settable``: values a user can set, counted from the AST:
  - ``params``: defaulted parameters of public module-level functions and
    of public classes' ``__init__`` in ``fsst_like_ray/``;
  - ``cli_flags``: distinct ``add_argument`` names per file in
    ``fsst_like_ray/``, ``bench.py`` and ``tools/`` (a flag shared by
    several subcommands of one CLI counts once);
  - ``env_vars``: distinct ``os.environ`` / ``os.getenv`` names read in
    the same files.

Usage: python tools/size_report.py [repo_root]
"""

import ast
import json
import os
import sys


def _files(root: str, rel: str, exts: tuple[str, ...]) -> list[str]:
    top = os.path.join(root, rel)
    if os.path.isfile(top):
        return [top]
    return sorted(
        os.path.join(d, f)
        for d, _sub, fs in os.walk(top)
        for f in fs
        if f.endswith(exts)
    )


def _n_defaults(args: ast.arguments) -> int:
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def _params(tree: ast.Module) -> int:
    n = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                n += _n_defaults(node.args)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    n += _n_defaults(item.args)
    return n


def _is_os_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _env_name(node: ast.AST) -> str | None:
    """The variable name an ``os.environ``/``os.getenv`` read names."""
    key = None
    if isinstance(node, ast.Subscript) and _is_os_environ(node.value):
        if isinstance(node.ctx, ast.Load):
            key = node.slice
    elif isinstance(node, ast.Call) and node.args:
        f = node.func
        if isinstance(f, ast.Attribute) and (
            (f.attr == "get" and _is_os_environ(f.value))
            or (
                f.attr == "getenv"
                and isinstance(f.value, ast.Name)
                and f.value.id == "os"
            )
        ):
            key = node.args[0]
    if key is None:
        return None
    return key.value if isinstance(key, ast.Constant) else ast.dump(key)


def report(root: str) -> dict:
    pkg_src = _files(root, "fsst_like_ray", (".py", ".c"))
    lines = 0
    for f in pkg_src:
        with open(f, "rb") as fh:
            lines += fh.read().count(b"\n")
    params = 0
    cli: set[tuple[str, str]] = set()
    env: set[str] = set()
    scanned = [f for f in pkg_src if f.endswith(".py")]
    scanned += _files(root, "bench.py", (".py",)) + _files(root, "tools", (".py",))
    for f in scanned:
        with open(f, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), f)
        if f.startswith(os.path.join(root, "fsst_like_ray") + os.sep):
            params += _params(tree)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"
                and node.args
            ):
                cli.add((f, ast.dump(node.args[0])))
            name = _env_name(node)
            if name is not None:
                env.add(name)
    return {
        "lines": lines,
        "settable": params + len(cli) + len(env),
        "params": params,
        "cli_flags": len(cli),
        "env_vars": len(env),
    }


if __name__ == "__main__":
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    print(json.dumps(report(root)))
