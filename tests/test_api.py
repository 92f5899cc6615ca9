"""The package's public names: __all__, the imports of __init__ and the
README library sketch agree, and the sketch runs; so do the README config
schema and the keys the parser accepts.  Every export is used."""

import ast
import importlib
import json
import math
import re
from pathlib import Path

import ratecost
from ratecost import cli

INIT = Path(ratecost.__file__)
ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
TRACING = ROOT / "perfbench" / "tracing.py"


def test_all_names_exist():
    missing = [name for name in ratecost.__all__ if not hasattr(ratecost, name)]
    assert missing == []


def test_all_lists_every_public_import():
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    public = {name for name in imported if not name.startswith("_")}
    assert public - set(ratecost.__all__) == set()


def _library_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", text,
                       re.DOTALL)
    assert sketch is not None
    return sketch.group(1)


def test_readme_library_sketch_imports_resolve():
    imports = [node for node in ast.parse(_library_sketch()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_readme_library_sketch_runs(capsys):
    # the sketch as written, with its horizons cut from 10^6 steps
    code, cuts = re.subn(r"horizon=1_000_000", "horizon=20_000",
                         _library_sketch())
    assert cuts == 2
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert math.isclose(names["bmin"], 2.0 + math.sqrt(5.0), rel_tol=1e-12)
    assert names["res"].steps == 20_000
    assert len(names["points"]) == 12
    assert len(capsys.readouterr().out.split()) == 3


def test_readme_config_schema_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Config schema\s+```json\n(.*?)```", text,
                      re.DOTALL)
    assert block is not None
    schema = json.loads(block.group(1))
    assert set(schema) == cli._KNOWN_KEYS
    assert set(schema["plant"]) == cli._PLANT_KEYS


def _traced_names() -> set[str]:
    """The functions and classes that perfbench/tracing.py TARGETS patches."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = next(node.value for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                           for t in node.targets))
    names = set()
    for owners, attr in ast.literal_eval(targets).values():
        names.add(attr)
        names.update(owner.partition(":")[2] for owner in owners)
    return names - {""}


def test_every_export_is_used_or_traced():
    """Each public name is used inside the package, outside __init__, or is
    patched by the benchmark tracer; an export neither uses is dead API.

    The exports held only by the tracer's TARGETS are the six
    lower_bound_*, entropy_cost_upper and DpcmCodec: once the tracer stops
    pinning them (ROADMAP item 2) they are the deletions of item 3."""
    used = set()
    for path in INIT.parent.glob("*.py"):
        if path != INIT:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    unused = sorted(set(ratecost.__all__) - used - _traced_names())
    assert unused == [], f"exported but unused: {unused}"
