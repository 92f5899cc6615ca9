"""The package's public names: __all__, the imports of __init__ and the
README library sketch agree, and so do the README config schema and the
keys the parser accepts."""

import ast
import importlib
import json
import re
from pathlib import Path

import ratecost
from ratecost import cli

INIT = Path(ratecost.__file__)
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_library_sketch_imports_resolve():
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"## Library sketch\s+```python\n(.*?)```", text,
                       re.DOTALL)
    assert sketch is not None
    imports = [node for node in ast.parse(sketch.group(1)).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"


def test_readme_config_schema_matches_the_parser():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"### Config schema\s+```json\n(.*?)```", text,
                      re.DOTALL)
    assert block is not None
    schema = json.loads(block.group(1))
    assert set(schema) == cli._KNOWN_KEYS
    assert set(schema["plant"]) == cli._PLANT_KEYS
