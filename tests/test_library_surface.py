"""Every public function, class, method and property of the library has a
caller outside tests.

Code that only tests call is either given a place in the program or deleted.
A module-level name counts as called when some module of src/ or perfbench/
refers to it, as a bare name or as an attribute, outside the name's own
definition; a method or property counts as called when some module refers to
it as an attribute, outside the member's own definition. Import lines and
strings do not count. The few names kept without such a caller are listed
below with the reason each stays.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vargrad_lab"

KEPT = {
    "delta_ratio_bound": "the paper's bound on the correction ratio, checked by test_c06",
    "read_csv": "the reader of the CSV format write_csv writes",
}


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def public_definitions() -> dict[str, Path]:
    """Public module-level functions and classes, and the public methods and
    properties of those classes as 'Class.member'."""
    names = {}
    for path, tree in _trees(sorted(PACKAGE.rglob("*.py"))):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names[node.name] = path
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        names[f"{node.name}.{item.name}"] = path
    return names


def references() -> tuple[set[str], set[str]]:
    """The bare names and the attribute names used in src/ and perfbench/,
    except inside the definition of the same name."""
    names, attributes = set(), set()
    paths = sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for _, tree in _trees(paths):
        owners = {}  # node -> the names of the definitions it sits in
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                for node in ast.walk(top):
                    owners[id(node)] = {top.name}
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    if isinstance(item, ast.FunctionDef):
                        for node in ast.walk(item):
                            owners[id(node)] = {top.name, item.name}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in owners.get(id(node), ()):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr not in owners.get(id(node), ()):
                attributes.add(node.attr)
    return names, attributes


def uncalled() -> set[str]:
    """Public definitions nothing refers to: a module-level name by bare name
    or attribute, a member by attribute."""
    names, attributes = references()
    out = set()
    for name in public_definitions():
        cls, _, member = name.rpartition(".")
        if member not in (attributes if cls else names | attributes):
            out.add(name)
    return out


def test_every_public_name_has_a_caller_outside_tests():
    defined = public_definitions()
    orphans = {
        name: str(defined[name].relative_to(ROOT)) for name in uncalled() if name not in KEPT
    }
    assert not orphans, f"only tests call these; give them a caller or delete them: {orphans}"


def test_kept_names_still_need_their_entry():
    defined, orphans = public_definitions(), uncalled()
    stale = sorted(name for name in KEPT if name not in defined or name not in orphans)
    assert not stale, f"remove these from KEPT: {stale}"
