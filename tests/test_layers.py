"""Import layering of the library, read from its source with ``ast``.

The modules form a stack in README's order; each imports only modules
below it.  The packed slot format has one owner, ``series``: the only
private names that cross a module boundary are its packed API, imported
by the two packed passes, and no other module defines one of them.
A series' rational ``terms`` are derived for tests and tooling; the
library above ``series`` reads its integer numerators instead.
"""

import ast
from pathlib import Path

import pytest

import qident

PKG = Path(qident.__file__).parent
LAYERS = ("series", "products", "nahm", "bailey", "catalog", "cli")
PACKED_API = {"_Slots", "_div_packed", "_mul_valid", "_pack", "_signed_slots",
              "_slot_width"}
PACKED_USERS = {"products", "nahm"}


def _tree(module):
    return ast.parse((PKG / f"{module}.py").read_text(encoding="utf-8"))


def _imports(module):
    """(imported qident module, name or None) for every import of a qident
    module in `module`, with attribute reads through a module alias."""
    out, aliases, tree = [], {}, _tree(module)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # relative to the package
                base = node.module.split(".")[0] if node.module else None
            elif node.module and node.module.split(".")[0] == "qident":
                base = node.module.split(".")[1] if "." in node.module \
                    else None
            else:
                continue
            for a in node.names:
                if base is None:  # from qident import series
                    out.append((a.name, None))
                    aliases[a.asname or a.name] = a.name
                else:
                    out.append((base, a.name))
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "qident" and len(parts) > 1:
                    out.append((parts[1], None))
                    if a.asname:
                        aliases[a.asname] = parts[1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in aliases:
            out.append((aliases[node.value.id], node.attr))
    return out


def _private(name):
    return name is not None and name.startswith("_") \
        and not name.startswith("__")


@pytest.mark.parametrize("module", LAYERS)
def test_each_module_imports_only_lower_layers(module):
    below = LAYERS[:LAYERS.index(module)]
    assert [s for s, _ in _imports(module) if s not in below] == []


@pytest.mark.parametrize("module", LAYERS)
def test_only_the_packed_api_crosses_modules_privately(module):
    allowed = PACKED_API if module in PACKED_USERS else set()
    assert [f"{source}.{name}" for source, name in _imports(module)
            if _private(name)
            and not (source == "series" and name in allowed)] == []


def test_series_alone_defines_the_packed_api():
    for module in LAYERS:
        body = _tree(module).body
        defined = {node.name for node in body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {t.id for node in body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        want = PACKED_API if module == "series" else set()
        assert defined & PACKED_API == want, module


@pytest.mark.parametrize("module", LAYERS[1:])
def test_no_module_above_series_reads_terms(module):
    assert [node.lineno for node in ast.walk(_tree(module))
            if isinstance(node, ast.Attribute) and node.attr == "terms"] == []
